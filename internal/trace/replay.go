package trace

import (
	"context"
	"sync"
	"time"

	"tagbreathe/internal/reader"
)

// Pacer slaves a report stream to the wall clock: a report stamped ts
// falls due at origin + ts/speed. Speed 0 means unpaced, every report
// due at once. A Pacer reuses one timer, so it belongs to one goroutine.
type Pacer struct {
	origin time.Time
	speed  float64
	timer  *time.Timer
}

// NewPacer returns a pacer whose stream time zero falls at origin and
// which advances speed stream seconds per wall second.
func NewPacer(origin time.Time, speed float64) *Pacer {
	return &Pacer{origin: origin, speed: speed}
}

// late returns how long ago a report stamped ts fell due (negative
// while it is still ahead); 0 when unpaced.
func (p *Pacer) late(ts time.Duration) time.Duration {
	if p.speed <= 0 {
		return 0
	}
	return time.Since(p.origin.Add(time.Duration(float64(ts) / p.speed)))
}

// Wait blocks until a report stamped ts falls due, or returns
// ctx.Err() as soon as ctx ends. A late report is released at once, so
// a replay that fell behind catches up instead of drifting.
func (p *Pacer) Wait(ctx context.Context, ts time.Duration) error {
	d := -p.late(ts)
	if d <= 0 {
		return ctx.Err()
	}
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d) // the last wait drained it
	}
	select {
	case <-p.timer.C:
	case <-ctx.Done():
		// Drop the timer rather than drain it: a fire racing this Stop
		// could leave a stale tick for the next wait.
		p.timer.Stop()
		p.timer = nil
	}
	return ctx.Err()
}

// Replay plays a recorded trace as a reader's live, paced report
// stream; it satisfies llrp.ReportSource. Its cursor is shared across
// Stream calls, so a reconnecting session resumes where the stream left
// off and never rewinds, the way a real reader's clock keeps running
// while the host is away. A report that fell due more than the drop
// budget ago is skipped as lost, so an outage becomes a genuine
// stream-time gap; budget 0 never skips.
type Replay struct {
	reports []reader.TagReport
	speed   float64
	budget  time.Duration

	mu     sync.Mutex
	origin time.Time
	pos    int
}

// NewReplay replays reports at speed stream seconds per wall second (0 =
// unpaced) with the given drop budget. Stream time zero falls now;
// Start moves it.
func NewReplay(reports []reader.TagReport, speed float64, budget time.Duration) *Replay {
	return &Replay{reports: reports, speed: speed, budget: budget, origin: time.Now()}
}

// Start anchors stream time zero at origin; call it before any Stream.
func (r *Replay) Start(origin time.Time) {
	r.mu.Lock()
	r.origin = origin
	r.mu.Unlock()
}

// Exhausted reports whether every report has been emitted or skipped.
func (r *Replay) Exhausted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pos >= len(r.reports)
}

// StreamNow returns the replay clock's current stream-time position.
func (r *Replay) StreamNow() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(float64(time.Since(r.origin)) * r.speed)
}

// Stream emits the remaining reports, each at its due time, until the
// trace is spent (nil), ctx ends (ctx.Err()) or emit fails (its error).
func (r *Replay) Stream(ctx context.Context, emit func(reader.TagReport) error) error {
	r.mu.Lock()
	p := NewPacer(r.origin, r.speed)
	r.mu.Unlock()
	for {
		rep, ok := r.claim(p)
		if !ok {
			return nil
		}
		if err := p.Wait(ctx, rep.Timestamp); err != nil {
			return err
		}
		if err := emit(rep); err != nil {
			return err
		}
	}
}

// claim advances the shared cursor past reports more than the drop
// budget late and returns the next; ok is false once the trace is spent.
func (r *Replay) claim(p *Pacer) (rep reader.TagReport, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.pos < len(r.reports) {
		rep = r.reports[r.pos]
		r.pos++
		if r.budget == 0 || p.late(rep.Timestamp) <= r.budget {
			return rep, true
		}
	}
	return reader.TagReport{}, false
}
