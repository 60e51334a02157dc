package main

import (
	"fmt"
	"math"
	"time"

	"tagbreathe/internal/core"
)

// clock maps stream time onto the wall clock of the paced phase: the
// report or update stamped with stream time origin is due at anchor,
// and one second of stream time is one second of wall time.
type clock struct {
	anchor time.Time
	origin time.Duration
}

// due returns the wall time stream time t is due.
func (c clock) due(t time.Duration) time.Time { return c.anchor.Add(t - c.origin) }

// update is one RateUpdate as the benchmark received it.
type update struct {
	uid  uint64
	at   time.Duration // RateUpdate.Time
	bpm  float64
	recv time.Time
}

// scoreSpec says which updates a run owes. Tick k is the analysis tick
// at stream time window + k·every; ticks firstTick..lastTick are
// measured. A user owes one update per measured tick once present for
// settle seconds, and until it leaves.
type scoreSpec struct {
	window, every       time.Duration
	firstTick, lastTick int
	settle              float64
	tolBPM              float64
}

// newScoreSpec covers the ticks of a paced phase that starts at stream
// time from and lasts seconds, at the monitor's default window and
// cadence. Phases start half a tick before a tick boundary and last
// whole seconds, so no tick sits at either edge.
func newScoreSpec(from time.Duration, seconds int, settle float64) scoreSpec {
	s := scoreSpec{window: defaultWin, every: tickEvery, settle: settle, tolBPM: tolBPM}
	lo := (from - s.window).Seconds()
	s.firstTick = int(math.Ceil(lo))
	s.lastTick = int(math.Floor(lo + float64(seconds)))
	return s
}

// tickOf returns the measured tick an update belongs to.
func (s scoreSpec) tickOf(at time.Duration) int {
	return int(math.Round(float64(at-s.window) / float64(s.every)))
}

// tickTime is tick k's stream time in seconds.
func (s scoreSpec) tickTime(k int) float64 {
	return (s.window + time.Duration(k)*s.every).Seconds()
}

// score is the correctness and latency verdict over one paced run.
type score struct {
	// expected counts owed updates; failed counts those missing, out
	// of tolerance, or later than one UpdateEvery.
	expected, failed           int
	missing, outOfBand, late   int
	accuracySum                float64
	matched                    int
	worstErrBPM                float64
	latenciesMs, emitSpreadsMs []float64
}

// accuracy is the mean Eq. 8 accuracy of the owed updates received.
func (s score) accuracy() float64 {
	if s.matched == 0 {
		return 0
	}
	return s.accuracySum / float64(s.matched)
}

// owed reports whether slot's occupant at tick time b owes an update,
// and its identity.
func owed(w *ward, slot int, b, settle float64) (uint64, bool) {
	gen := w.generation(slot, b)
	join, leave := w.stay(slot, gen)
	return w.identity(slot, gen), b-join >= settle && b < leave
}

// scoreUpdates checks every received update of the measured ticks
// against the ward's truth, and counts each owed update that never
// arrived. Latency is measured for every update of a measured tick,
// owed or not: receive time minus the due time of its stream time.
func scoreUpdates(w *ward, spec scoreSpec, clk clock, ups []update) score {
	var s score
	type key struct {
		tick int
		uid  uint64
	}
	seen := make(map[key]bool)
	first := make(map[int]time.Time)
	last := make(map[int]time.Time)
	for _, u := range ups {
		k := spec.tickOf(u.at)
		if k < spec.firstTick || k > spec.lastTick {
			continue
		}
		lat := u.recv.Sub(clk.due(u.at))
		s.latenciesMs = append(s.latenciesMs, float64(lat)/1e6)
		if f, ok := first[k]; !ok || u.recv.Before(f) {
			first[k] = u.recv
		}
		if l, ok := last[k]; !ok || u.recv.After(l) {
			last[k] = u.recv
		}
		slot, _, ok := w.occupant(u.uid)
		if !ok {
			continue
		}
		if id, isOwed := owed(w, slot, spec.tickTime(k), spec.settle); !isOwed || id != u.uid {
			continue
		}
		if seen[key{k, u.uid}] {
			continue
		}
		seen[key{k, u.uid}] = true
		s.matched++
		truth := w.truthBPM(slot)
		errBPM := math.Abs(u.bpm - truth)
		if errBPM > s.worstErrBPM {
			s.worstErrBPM = errBPM
		}
		s.accuracySum += core.Accuracy(u.bpm, truth)
		bad := false
		if errBPM > spec.tolBPM {
			s.outOfBand++
			bad = true
		}
		if lat > spec.every {
			s.late++
			bad = true
		}
		if bad {
			s.failed++
		}
	}
	for k := spec.firstTick; k <= spec.lastTick; k++ {
		b := spec.tickTime(k)
		for slot := 0; slot < w.cfg.users; slot++ {
			if _, isOwed := owed(w, slot, b, spec.settle); isOwed {
				s.expected++
			}
		}
		if f, ok := first[k]; ok {
			s.emitSpreadsMs = append(s.emitSpreadsMs, float64(last[k].Sub(f))/1e6)
		}
	}
	s.missing = s.expected - s.matched
	s.failed += s.missing
	return s
}

// accounts is the report ledger of one run: every report offered must
// be processed by the monitor or shed at exactly one counted point.
type accounts struct {
	offered   uint64
	processed uint64
	// shed counts reports dropped at each shedding point, by name.
	shed map[string]uint64
	// lossless names the shedding points whose policy forbids drops.
	lossless []string
}

// check returns the shed total and every accounting violation.
func (a accounts) check() (shed uint64, problems []string) {
	for _, n := range a.shed {
		shed += n
	}
	if a.processed+shed != a.offered {
		problems = append(problems, fmt.Sprintf("accounting: offered %d != processed %d + shed %d",
			a.offered, a.processed, shed))
	}
	for _, name := range a.lossless {
		if n := a.shed[name]; n > 0 {
			problems = append(problems, fmt.Sprintf("%s dropped %d reports under a lossless policy", name, n))
		}
	}
	return shed, problems
}
