package main

import (
	"context"
	"time"

	"tagbreathe/internal/reader"
)

// paceSlack is how far ahead of its due time a report may be emitted
// rather than sleeping for it.
const paceSlack = 2 * time.Millisecond

// producer is the open-loop generator of a paced phase: it emits read
// steps of one ward at real time, each report when its stream time is
// due, and never slows down for the system under test — a stall in the
// system shows as lateness here and as latency downstream.
type producer struct {
	w   *ward
	clk clock
	// log, when non-nil, records a sim.step span per step and an
	// emitName span per report; emitUs keeps every emit's duration.
	log      *spanLog
	emitName string
	emitUs   []float64

	next    int // next step to emit
	emitted uint64
	lateMs  []float64 // per report: how late it was emitted, ≥ 0
}

// run emits steps from next up to (not including) to through emit.
func (p *producer) run(ctx context.Context, to int, emit func(reader.TagReport) error) error {
	buf := make([]reader.TagReport, 0, p.w.perStep())
	for ; p.next < to; p.next++ {
		k := p.next
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := p.log.now()
		buf = p.w.step(k, buf[:0])
		parent := p.log.add("sim.step", uint64(k), -1, t0, p.log.now())
		for i := range buf {
			r := buf[i]
			due := p.clk.due(r.Timestamp)
			now := time.Now()
			if ahead := due.Sub(now); ahead > paceSlack {
				time.Sleep(ahead)
				now = time.Now()
			}
			late := now.Sub(due)
			if late < 0 {
				late = 0
			}
			p.lateMs = append(p.lateMs, float64(late)/1e6)
			var err error
			if p.log != nil {
				s := p.log.now()
				err = emit(r)
				e := p.log.now()
				p.log.add(p.emitName, p.emitted, parent, s, e)
				p.emitUs = append(p.emitUs, float64(e-s)/1e3)
			} else {
				err = emit(r)
			}
			if err != nil {
				return err
			}
			p.emitted++
		}
	}
	return nil
}
