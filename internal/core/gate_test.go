package core

import (
	"testing"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// gateStep is one report offered to a VantageGate: its vantage, the
// class the classifier names for it, the destination queue's
// occupancy, and what the caller does on a GateClose verdict.
type gateStep struct {
	uid    uint64
	port   int
	class  ShedClass
	occ    int
	commit bool // on GateClose, the caller's tombstone landed: Close
	want   GateVerdict
	closed int // closed gates after the step
}

// TestVantageGateDecisions drives the hold/reopen/close decision
// through scripted report sequences; there is no clock, only queue
// occupancy and classification. Shed mark 8, reopen mark 4.
func TestVantageGateDecisions(t *testing.T) {
	const u1, u2 = 1, 2
	cases := []struct {
		name  string
		steps []gateStep
	}{
		{"close at the mark", []gateStep{
			{uid: u1, port: 2, class: ShedRedundant, occ: 7, want: GateOpen},
			{uid: u1, port: 1, class: ShedPrimary, occ: 8, want: GateOpen},
			{uid: u1, port: 2, class: ShedUnknown, occ: 8, want: GateOpen},
			{uid: u1, port: 2, class: ShedRedundant, occ: 8, commit: true, want: GateClose, closed: 1},
		}},
		{"hold while above reopen and redundant", []gateStep{
			{uid: u1, port: 2, class: ShedRedundant, occ: 9, commit: true, want: GateClose, closed: 1},
			{uid: u1, port: 2, class: ShedRedundant, occ: 5, want: GateHold, closed: 1},
			{uid: u1, port: 2, class: ShedRedundant, occ: 8, want: GateHold, closed: 1},
			// Other vantages are not held by this gate.
			{uid: u1, port: 3, class: ShedRedundant, occ: 5, want: GateOpen, closed: 1},
			{uid: u2, port: 2, class: ShedRedundant, occ: 5, want: GateOpen, closed: 1},
		}},
		{"reopen on drain", []gateStep{
			{uid: u1, port: 2, class: ShedRedundant, occ: 8, commit: true, want: GateClose, closed: 1},
			{uid: u1, port: 2, class: ShedRedundant, occ: 4, want: GateOpen},
			{uid: u1, port: 2, class: ShedRedundant, occ: 5, want: GateOpen},
		}},
		{"reopen when the vantage becomes primary", []gateStep{
			{uid: u1, port: 2, class: ShedRedundant, occ: 8, commit: true, want: GateClose, closed: 1},
			{uid: u1, port: 2, class: ShedPrimary, occ: 7, want: GateOpen},
			// Reopened: a redundant report below the mark passes.
			{uid: u1, port: 2, class: ShedRedundant, occ: 7, want: GateOpen},
		}},
		{"reopen then close again at the mark", []gateStep{
			{uid: u1, port: 2, class: ShedRedundant, occ: 8, commit: true, want: GateClose, closed: 1},
			{uid: u1, port: 2, class: ShedPrimary, occ: 8, want: GateOpen},
			{uid: u1, port: 2, class: ShedRedundant, occ: 8, commit: true, want: GateClose, closed: 1},
		}},
		{"a failed tombstone leaves the gate open", []gateStep{
			{uid: u1, port: 2, class: ShedRedundant, occ: 8, want: GateClose},
			{uid: u1, port: 2, class: ShedRedundant, occ: 6, want: GateOpen},
			{uid: u1, port: 2, class: ShedRedundant, occ: 8, commit: true, want: GateClose, closed: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cls ShedClass
			gauge := obs.NewRegistry().Gauge("gates", "closed gates")
			g := NewVantageGate(8, func(reader.TagReport) ShedClass { return cls }, gauge)
			for i, st := range tc.steps {
				cls = st.class
				r := reader.TagReport{EPC: epc.NewUserTagEPC(st.uid, 1), ReaderID: "east", AntennaPort: st.port}
				got := g.Admit(r, st.occ)
				if got == GateClose && st.commit {
					g.Close(r)
				}
				if got != st.want {
					t.Fatalf("step %d: verdict %d, want %d", i, got, st.want)
				}
				if len(g.closed) != st.closed || int(gauge.Value()) != st.closed {
					t.Fatalf("step %d: %d gates closed (gauge %v), want %d", i, len(g.closed), gauge.Value(), st.closed)
				}
			}
		})
	}
}

// TestVantageGateWithoutClassifier: with no classifier the gate never
// closes and every shed classifies as unknown.
func TestVantageGateWithoutClassifier(t *testing.T) {
	g := NewVantageGate(1, nil, nil)
	r := reader.TagReport{EPC: epc.NewUserTagEPC(1, 1), AntennaPort: 2}
	if v := g.Admit(r, 1<<20); v != GateOpen {
		t.Fatalf("verdict %d, want GateOpen", v)
	}
	if c := g.Class(r); c != ShedUnknown {
		t.Fatalf("class %v, want unknown", c)
	}
}

// TestVantageGateMarks pins the shed and reopen marks each caller
// derives: the demux with and without the degradation ladder, and the
// fleet merge at its default and a tiny buffer.
func TestVantageGateMarks(t *testing.T) {
	cases := []struct {
		name         string
		shedMark     int
		shed, reopen int
	}{
		{"demux queue 256", MonitorConfig{ShardQueue: 256}.demuxShedMark(), 224, 112},
		{"demux queue 256, default ladder", MonitorConfig{ShardQueue: 256, Degrade: DegradeConfig{MaxStretch: 8}}.demuxShedMark(), 192, 96},
		{"demux queue 320, engage 1/8", MonitorConfig{ShardQueue: 320, Degrade: DegradeConfig{MaxStretch: 8, EngageFraction: 0.125}}.demuxShedMark(), 180, 90},
		{"fleet 4096", ShedMark(4096), 3584, 1792},
		{"fleet 8", ShedMark(8), 7, 3},
		{"fleet 1", ShedMark(1), 1, 0},
	}
	for _, tc := range cases {
		g := NewVantageGate(tc.shedMark, nil, nil)
		if g.shedMark != tc.shed || g.reopenMark != tc.reopen {
			t.Errorf("%s: marks %d/%d, want %d/%d", tc.name, g.shedMark, g.reopenMark, tc.shed, tc.reopen)
		}
	}
	// The governor escalates at the same engage mark the demux derives
	// its shed mark from.
	if gov := newTickGovernor(DegradeConfig{MaxStretch: 8, EngageFraction: 0.125}, 320); gov.engage != 40 {
		t.Errorf("governor engage %d, want 40", gov.engage)
	}
}

// TestVantageGateAdmitAllocs: the per-report admit path — below the
// mark, at the mark, and past a closed gate — never allocates.
func TestVantageGateAdmitAllocs(t *testing.T) {
	g := NewVantageGate(8, func(reader.TagReport) ShedClass { return ShedRedundant }, nil)
	r := reader.TagReport{EPC: epc.NewUserTagEPC(7, 1), ReaderID: "east", AntennaPort: 2}
	for _, occ := range []int{0, 8} {
		if n := testing.AllocsPerRun(100, func() { g.Admit(r, occ) }); n != 0 {
			t.Errorf("Admit at occupancy %d: %v allocs, want 0", occ, n)
		}
	}
	g.Close(reader.TagReport{EPC: epc.NewUserTagEPC(8, 1), ReaderID: "east", AntennaPort: 2})
	if n := testing.AllocsPerRun(100, func() { g.Admit(r, 0) }); n != 0 {
		t.Errorf("Admit with a gate closed: %v allocs, want 0", n)
	}
}
