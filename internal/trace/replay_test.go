package trace

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"tagbreathe/internal/reader"
)

// stamped builds reports stamped ts, in order; each report's
// ChannelIndex carries its index so tests can tell reports apart.
func stamped(ts ...time.Duration) []reader.TagReport {
	out := make([]reader.TagReport, len(ts))
	for i, t := range ts {
		out[i] = reader.TagReport{Timestamp: t, ChannelIndex: i}
	}
	return out
}

// collect streams rp to completion and returns the emitted timestamps.
func collect(t *testing.T, rp *Replay) []time.Duration {
	t.Helper()
	var got []time.Duration
	err := rp.Stream(context.Background(), func(r reader.TagReport) error {
		got = append(got, r.Timestamp)
		return nil
	})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	return got
}

func TestReplayUnpacedEmitsEveryReportInOrder(t *testing.T) {
	// Hour-scale timestamps: any wait at speed 0 would hang the test.
	ts := []time.Duration{0, time.Hour, 2 * time.Hour, 2 * time.Hour, 5 * time.Hour}
	rp := NewReplay(stamped(ts...), 0, time.Millisecond)
	if got := collect(t, rp); !slices.Equal(got, ts) {
		t.Fatalf("emitted %v, want %v", got, ts)
	}
	if !rp.Exhausted() {
		t.Error("replay not exhausted after a full stream")
	}
}

func TestReplayReconnectResumesSharedCursor(t *testing.T) {
	reports := stamped(0, 1, 2, 3, 4, 5, 6, 7)
	rp := NewReplay(reports, 0, 0)
	linkDown := errors.New("link down")

	// First connection: the link fails while emitting the fourth
	// report, which is lost with the connection.
	var first []int
	err := rp.Stream(context.Background(), func(r reader.TagReport) error {
		if len(first) == 3 {
			return linkDown
		}
		first = append(first, r.ChannelIndex)
		return nil
	})
	if !errors.Is(err, linkDown) {
		t.Fatalf("first Stream = %v, want the emit error", err)
	}
	if rp.Exhausted() {
		t.Fatal("exhausted after a partial stream")
	}

	// Second connection: resumes after the last claimed report.
	var second []int
	if err := rp.Stream(context.Background(), func(r reader.TagReport) error {
		second = append(second, r.ChannelIndex)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2}; !slices.Equal(first, want) {
		t.Fatalf("first connection emitted %v, want %v", first, want)
	}
	if want := []int{4, 5, 6, 7}; !slices.Equal(second, want) {
		t.Fatalf("second connection emitted %v, want %v (rewound or skipped)", second, want)
	}

	// A third connection finds the trace spent.
	if got := collect(t, rp); len(got) != 0 {
		t.Errorf("spent replay emitted %v", got)
	}
}

func TestReplayDropBudgetSkipsLateReports(t *testing.T) {
	// Stream time zero lies 20 s in the past at 1× speed, so every
	// report is already due: those stamped before 10 s are more than
	// 10 s late, the rest at most 5 s late. Margins are seconds wide
	// and nothing waits, so the outcome does not depend on timing.
	ts := []time.Duration{0, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		15 * time.Second, 16 * time.Second, 17 * time.Second}
	origin := time.Now().Add(-20 * time.Second)

	rp := NewReplay(stamped(ts...), 1, 10*time.Second)
	rp.Start(origin)
	want := ts[4:]
	if got := collect(t, rp); !slices.Equal(got, want) {
		t.Errorf("budget 10s emitted %v, want %v", got, want)
	}
	if !rp.Exhausted() {
		t.Error("skipped reports left the replay unexhausted")
	}

	rp = NewReplay(stamped(ts...), 1, 0)
	rp.Start(origin)
	if got := collect(t, rp); !slices.Equal(got, ts) {
		t.Errorf("budget 0 emitted %v, want every report %v", got, ts)
	}
}

func TestReplayStreamNowTracksOrigin(t *testing.T) {
	rp := NewReplay(nil, 60, 0)
	rp.Start(time.Now().Add(-10 * time.Second))
	// 10 s of wall at 60× is 600 s of stream. Wall time only moves
	// forward, so the lower bound is exact; the upper one allows ten
	// wall seconds for a slow machine.
	if now := rp.StreamNow(); now < 600*time.Second || now > 1200*time.Second {
		t.Errorf("StreamNow = %v, want ≈ 600s", now)
	}
}

func TestReplayCancelReturnsWithoutWaiting(t *testing.T) {
	// The second report falls due an hour from now: returning before
	// the test timeout proves cancellation does not wait for it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rp := NewReplay(stamped(0, time.Hour), 1, 0)
	var n int
	err := rp.Stream(ctx, func(reader.TagReport) error {
		n++
		go cancel() // cancel while Stream waits for the next report
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream = %v, want context.Canceled", err)
	}
	if n != 1 {
		t.Errorf("emitted %d reports before cancellation, want 1", n)
	}

	// An already-cancelled context stops an unpaced replay too.
	rp = NewReplay(stamped(0, 1, 2), 0, 0)
	if err := rp.Stream(ctx, func(reader.TagReport) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled unpaced Stream = %v, want context.Canceled", err)
	}
}

func TestPacerWaitsAgainAfterCancel(t *testing.T) {
	// After a cancelled wait the pacer must still pace: a later wait
	// for an already-due report returns at once, and one an hour ahead
	// blocks until its own context ends.
	p := NewPacer(time.Now(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Wait(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait = %v", err)
	}
	if err := p.Wait(context.Background(), 0); err != nil {
		t.Fatalf("due Wait = %v", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	go cancel2()
	if err := p.Wait(ctx2, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after reuse = %v", err)
	}
}
