package core

import (
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// Quality-aware load shedding happens in exactly two places — the fleet
// merge and the monitor demux — and both run it through one
// VantageGate. The premise is §IV-D.3: each user's estimate comes from
// one selected (reader, antenna) vantage, so every other vantage is
// redundant oversampling of a signal below 0.67 Hz and goes first.
//
// Redundant vantages are shed coherently, not report-by-report: the
// differencer's streams are per (vantage, channel), and a stream that
// keeps receiving occasional reads while its siblings starve pins the
// finality horizon (EarliestOpenStream) for MaxPhaseGap — stalling the
// user's primary chain too. So the first redundant report shed at the
// shed mark closes the vantage's gate, everything after it is shed at
// the door, and the gate reopens — streams re-prime naturally — once
// the queue drains to half the shed mark or the vantage stops being
// redundant.

// GateVerdict is a VantageGate's decision for one report.
type GateVerdict uint8

const (
	// GateOpen: offer the report to the queue as usual. A report the
	// full queue then rejects is shed under Class.
	GateOpen GateVerdict = iota
	// GateHold: the report's vantage gate is closed and pressure has
	// not cleared; shed the report as ShedRedundant.
	GateHold
	// GateClose: the queue is at the shed mark and the report's vantage
	// is redundant; shed the report as ShedRedundant and call Close once
	// whatever closing needs (the demux's tombstone) is done.
	GateClose
)

// VantageGate is the coherent per-vantage shedding gate: it owns the
// shed mark, the reopen mark (half the shed mark), the set of closed
// (user, reader, antenna) gates and the hold/reopen/close decision.
// One goroutine drives a gate; it is not safe for concurrent use.
type VantageGate struct {
	shedMark   int
	reopenMark int
	classify   func(r reader.TagReport) ShedClass
	// gauge tracks len(closed); nil publishes nothing.
	gauge  *obs.Gauge
	closed map[gateKey]struct{}
}

// gateKey identifies one user's (reader, antenna) vantage gate.
type gateKey struct {
	uid uint64
	v   vantage
}

func gateKeyOf(r reader.TagReport) gateKey {
	return gateKey{uid: r.EPC.UserID(), v: vantage{reader: r.ReaderID, port: r.AntennaPort}}
}

// ShedMark is the default queue occupancy at which quality-aware
// shedding starts on a queue of capacity slots: the last eighth.
func ShedMark(capacity int) int { return capacity - capacity/8 }

// demuxShedMark is the demux gate's shed mark. Without the ladder it
// is the default last eighth of the queue. With the ladder it sits
// midway between the engage mark and capacity: strictly above engage,
// because shedding redundant vantages is the rung AFTER tick
// stretching (DESIGN.md §13) — were the marks equal, watermark
// shedding would clamp broadcast-time occupancy just below engage and
// the ladder could never climb — while the half-queue of headroom
// above it absorbs the primary-vantage inflow that lands while the
// gates close.
func (c MonitorConfig) demuxShedMark() int {
	if !c.Degrade.enabled() {
		return ShedMark(c.ShardQueue)
	}
	return (c.Degrade.engageMark(c.ShardQueue) + c.ShardQueue) / 2
}

// NewVantageGate builds a gate that closes at shedMark (raised to 1 if
// lower) and reopens at or below shedMark/2. classify names a report's
// vantage class; nil classifies everything ShedUnknown, so the gate
// never closes. gauge, when non-nil, tracks how many gates are closed.
func NewVantageGate(shedMark int, classify func(r reader.TagReport) ShedClass, gauge *obs.Gauge) *VantageGate {
	if shedMark < 1 {
		shedMark = 1
	}
	return &VantageGate{
		shedMark:   shedMark,
		reopenMark: shedMark / 2,
		classify:   classify,
		gauge:      gauge,
		closed:     make(map[gateKey]struct{}),
	}
}

// Class returns r's vantage class (ShedUnknown without a classifier).
func (g *VantageGate) Class(r reader.TagReport) ShedClass {
	if g.classify == nil {
		return ShedUnknown
	}
	return g.classify(r)
}

// Admit decides r's fate given occ, the occupancy of the queue r is
// headed for. A closed gate holds while occ is above the reopen mark
// and the vantage is still redundant; otherwise it reopens. An open
// gate asks the caller to close it when occ is at the shed mark and
// the vantage is redundant. The classifier runs only at those marks.
//
//tagbreathe:hotpath runs once per report on the fleet pump and the monitor demux
func (g *VantageGate) Admit(r reader.TagReport, occ int) GateVerdict {
	if g.classify == nil {
		return GateOpen
	}
	if len(g.closed) > 0 {
		k := gateKeyOf(r)
		if _, closed := g.closed[k]; closed {
			if occ > g.reopenMark && g.classify(r) == ShedRedundant {
				return GateHold
			}
			delete(g.closed, k)
			g.gauge.Set(float64(len(g.closed)))
		}
	}
	if occ >= g.shedMark && g.classify(r) == ShedRedundant {
		return GateClose
	}
	return GateOpen
}

// Close closes r's vantage gate after a GateClose verdict.
func (g *VantageGate) Close(r reader.TagReport) {
	g.closed[gateKeyOf(r)] = struct{}{}
	g.gauge.Set(float64(len(g.closed)))
}
