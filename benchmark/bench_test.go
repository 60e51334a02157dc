package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestClockMapsStreamTimeToDueWallTime(t *testing.T) {
	anchor := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	c := clock{anchor: anchor, origin: 24500 * time.Millisecond}
	cases := []struct {
		stream time.Duration
		want   time.Time
	}{
		{24500 * time.Millisecond, anchor},
		{25 * time.Second, anchor.Add(500 * time.Millisecond)},
		{44500 * time.Millisecond, anchor.Add(20 * time.Second)},
		{24 * time.Second, anchor.Add(-500 * time.Millisecond)},
	}
	for _, tc := range cases {
		if got := c.due(tc.stream); !got.Equal(tc.want) {
			t.Errorf("due(%v) = %v, want %v", tc.stream, got, tc.want)
		}
	}
}

func TestScoreSpecCoversWholeSecondsOfTicks(t *testing.T) {
	for _, tc := range []struct {
		from        time.Duration
		seconds     int
		first, last int
	}{
		{wardPrimeEnd, 20, 0, 19},
		{wirePrimeEnd, 20, 17, 36},
		{wardPrimeEnd, 1, 0, 0},
	} {
		s := newScoreSpec(tc.from, tc.seconds, 0)
		if s.firstTick != tc.first || s.lastTick != tc.last {
			t.Errorf("from %v for %ds: ticks %d..%d, want %d..%d", tc.from, tc.seconds, s.firstTick, s.lastTick, tc.first, tc.last)
		}
	}
	s := newScoreSpec(wardPrimeEnd, 20, 0)
	if k := s.tickOf(25*time.Second + 40*time.Microsecond); k != 0 {
		t.Errorf("tickOf just past the first boundary = %d, want 0", k)
	}
}

func TestChurnIdentitiesRoundTrip(t *testing.T) {
	w, err := newWard(newWardConfig(7, 10, 30))
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 10; slot++ {
		for gen := uint64(0); gen < 4; gen++ {
			s, g, ok := w.occupant(w.identity(slot, gen))
			if !ok || s != slot || g != gen {
				t.Fatalf("occupant(identity(%d, %d)) = %d, %d, %v", slot, gen, s, g, ok)
			}
			join, leave := w.stay(slot, gen)
			if got := w.generation(slot, (join+leave)/2); got != gen {
				t.Errorf("slot %d: generation mid-stay = %d, want %d", slot, got, gen)
			}
			if nextJoin, _ := w.stay(slot, gen+1); math.Abs(nextJoin-leave) > 1e-9 {
				t.Errorf("slot %d gen %d: stays are not contiguous", slot, gen)
			}
		}
	}
}

// perfectUpdates returns, for every owed (tick, user) of spec, an
// update with the true rate received on time.
func perfectUpdates(w *ward, spec scoreSpec, clk clock) []update {
	var ups []update
	for k := spec.firstTick; k <= spec.lastTick; k++ {
		at := time.Duration(spec.tickTime(k) * float64(time.Second))
		for slot := 0; slot < w.cfg.users; slot++ {
			if id, ok := owed(w, slot, spec.tickTime(k), spec.settle); ok {
				ups = append(ups, update{uid: id, at: at, bpm: w.truthBPM(slot), recv: clk.due(at).Add(5 * time.Millisecond)})
			}
		}
	}
	return ups
}

func TestScoreCountsEachInjectedFailure(t *testing.T) {
	w, err := newWard(newWardConfig(3, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	spec := newScoreSpec(wardPrimeEnd, 3, defaultWin.Seconds())
	clk := clock{anchor: time.Now(), origin: wardPrimeEnd}
	ups := perfectUpdates(w, spec, clk)
	if sc := scoreUpdates(w, spec, clk, ups); sc.expected != 12 || sc.failed != 0 || sc.accuracy() != 1 {
		t.Fatalf("perfect run: expected %d failed %d accuracy %v, want 12, 0, 1", sc.expected, sc.failed, sc.accuracy())
	}

	bad := append([]update(nil), ups[1:]...) // ups[0] goes missing
	bad[0].bpm += 2 * tolBPM                 // out of band
	bad[1].recv = bad[1].recv.Add(tickEvery) // later than one UpdateEvery
	sc := scoreUpdates(w, spec, clk, bad)
	if sc.missing != 1 || sc.outOfBand != 1 || sc.late != 1 || sc.failed != 3 {
		t.Errorf("injected one of each: missing %d out-of-band %d late %d failed %d, want 1 1 1 3",
			sc.missing, sc.outOfBand, sc.late, sc.failed)
	}

	// An update owed by nobody (an unknown user) is ignored, a duplicate
	// is counted once.
	extra := append(append([]update(nil), ups...), ups[0], update{uid: 1 << 40, at: ups[0].at, bpm: 1, recv: ups[0].recv})
	if sc := scoreUpdates(w, spec, clk, extra); sc.failed != 0 || sc.matched != 12 {
		t.Errorf("duplicate and stranger: failed %d matched %d, want 0 and 12", sc.failed, sc.matched)
	}
}

func TestShedReportsCountAsFailures(t *testing.T) {
	clean := accounts{offered: 100, processed: 100, shed: map[string]uint64{"fleet.merge": 0, "core.demux": 0}, lossless: []string{"core.demux"}}
	if shed, problems := clean.check(); shed != 0 || len(problems) != 0 {
		t.Fatalf("clean ledger: shed %d problems %v", shed, problems)
	}
	shedOne := clean
	shedOne.processed = 99
	shedOne.shed = map[string]uint64{"fleet.merge": 1, "core.demux": 0}
	if shed, problems := shedOne.check(); shed != 1 || len(problems) != 0 {
		t.Fatalf("one merge shed: shed %d problems %v", shed, problems)
	}
	out := newOutcome(runOpts{})
	out.finishPaced(score{expected: 10}, shedOne, 50, phase{wall: time.Second}, time.Second)
	if out.failed != 1 || out.attempted != 110 || len(out.problems) != 0 {
		t.Errorf("outcome with one shed report: failed %d attempted %d problems %v, want 1, 110, none",
			out.failed, out.attempted, out.problems)
	}

	lost := clean
	lost.processed = 98
	if _, problems := lost.check(); len(problems) != 1 {
		t.Errorf("two unaccounted reports: problems %v, want one", problems)
	}
	blocked := clean
	blocked.processed = 99
	blocked.shed = map[string]uint64{"core.demux": 1}
	if _, problems := blocked.check(); len(problems) != 1 {
		t.Errorf("a drop under a lossless policy: problems %v, want one", problems)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := newSpanLog(time.Now())
	p := l.add("sim.step", 0, -1, 0, 100)
	l.add("llrp.emit", 0, p, 10, 30)
	l.add("llrp.emit", 1, p, 20, 50)
	l.add("core.ingest", 0, -1, 200, 260)
	got := selfTime([]*spanLog{l})
	want := map[string]time.Duration{"sim": 60, "llrp": 50, "core": 60}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

// TestWorkloadsSmoke runs every workload traced at a tiny size; with
// -race it checks the pacing, server and fleet goroutines.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paced runs take seconds")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			o := runOpts{ctx: context.Background(), seed: 11, seconds: 2, epoch: time.Now(), users: 6, setups: 1, spanDir: t.TempDir()}
			res, err := measure(wl, o, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Errorf("not correct: %v", res.record["problems"])
			}
			if res.attempted < 1 {
				t.Errorf("attempted %d", res.attempted)
			}
			for _, m := range []string{"llrp.encode_ns_per_report", "core.engine_feed_ns_per_report", "sigproc.bandpass_us_per_call", "proc.goroutines"} {
				if res.values[m] <= 0 {
					t.Errorf("%s = %v, want > 0", m, res.values[m])
				}
			}
			out, err := wl.run(runOpts{ctx: context.Background(), seed: 12, seconds: 1, epoch: time.Now(), users: 6, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range endToEnd {
				if v := out.e2e[m.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
		})
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && math.Abs(*g.Bound-m.bound) > 1e-12) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
