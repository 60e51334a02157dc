package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sigproc"
)

// Layer probes replay a workload's own generated input, single
// threaded, through each layer's public entry points. They price one
// call of each layer with nothing else running, which makes them the
// single-threaded baseline the paced numbers are read against.

const (
	// probeUsers slots over probeStream seconds: one 25 s window plus
	// ten ticks of the paced workloads.
	probeUsers  = 32
	probeStream = 35.0
	// probeBudget is the minimum time each probe repeats for.
	probeBudget = 150 * time.Millisecond
	// binSec is the pipeline's default fusion bin width.
	binSec = 0.0625
)

// probeInput is one workload's probe input and analysis geometry.
type probeInput struct {
	reports []reader.TagReport
	filter  core.FilterMode
	window  time.Duration
}

// repeat runs fn until probeBudget has passed and returns the mean
// time of one run, recording a span per run.
func repeat(log *spanLog, name string, fn func() error) (time.Duration, error) {
	var n int
	start := time.Now()
	for n == 0 || time.Since(start) < probeBudget {
		s := log.now()
		if err := fn(); err != nil {
			return 0, err
		}
		log.add(name, uint64(n), -1, s, log.now())
		n++
	}
	return time.Since(start) / time.Duration(n), nil
}

// runProbes runs every probe over in and returns the layer metrics.
func runProbes(in probeInput, log *spanLog) (map[string]float64, error) {
	out := make(map[string]float64)
	rs := in.reports
	n := float64(len(rs))
	if len(rs) == 0 {
		return nil, errors.New("benchmark: probes: empty input")
	}

	// llrp: RO_ACCESS_REPORT framing in batches of 16, as the server
	// sends them, then the client's decode of the same bytes.
	var wire bytes.Buffer
	encode := func() error {
		wire.Reset()
		var payload []byte
		for i := 0; i < len(rs); i += 16 {
			payload = payload[:0]
			for j := i; j < len(rs) && j < i+16; j++ {
				payload = append(payload, llrp.EncodeTagReport(rs[j])...)
			}
			if err := llrp.WriteMessage(&wire, llrp.Message{Type: llrp.MsgROAccessReport, ID: uint32(i), Payload: payload}); err != nil {
				return fmt.Errorf("benchmark: probes: %w", err)
			}
		}
		return nil
	}
	d, err := repeat(log, "llrp.encode_probe", encode)
	if err != nil {
		return nil, err
	}
	out["llrp.encode_ns_per_report"] = float64(d.Nanoseconds()) / n
	frames := wire.Bytes()
	d, err = repeat(log, "llrp.decode_probe", func() error {
		r := bytes.NewReader(frames)
		got := 0
		for {
			m, err := llrp.ReadMessage(r)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return fmt.Errorf("benchmark: probes: %w", err)
			}
			reps, err := llrp.DecodeTagReports(m.Payload)
			if err != nil {
				return fmt.Errorf("benchmark: probes: %w", err)
			}
			got += len(reps)
		}
		if got != len(rs) {
			return fmt.Errorf("benchmark: probes: decoded %d of %d reports", got, len(rs))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["llrp.decode_ns_per_report"] = float64(d.Nanoseconds()) / n

	// core: Eq. 3 differencing alone, then the per-user engines the
	// shard workers run — Feed per report, TickUpdate per user and tick.
	cfg := core.Config{Filter: in.filter}
	d, err = repeat(log, "core.differencer_probe", func() error {
		df := core.NewDifferencer(cfg)
		for _, r := range rs {
			df.Ingest(r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["core.differencer_ns_per_report"] = float64(d.Nanoseconds()) / n

	var feed, tick time.Duration
	var userTicks, feeds int
	_, err = repeat(log, "core.engine_probe", func() error {
		f, t, u := replayEngines(rs, cfg, in.window)
		feed += f
		tick += t
		userTicks += u
		feeds += len(rs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["core.engine_feed_ns_per_report"] = float64(feed.Nanoseconds()) / float64(feeds)
	if userTicks > 0 {
		out["core.engine_tick_us_per_user"] = float64(tick.Nanoseconds()) / 1e3 / float64(userTicks)
	}

	// sigproc: the FFT band-pass at the workload's window length in
	// bins, the call each recompute tick makes per user.
	bins := int(in.window.Seconds() / binSec)
	x := make([]float64, bins)
	for i := range x {
		t := float64(i) * binSec
		x[i] = math.Sin(2*math.Pi*0.25*t) + 0.1*math.Sin(2*math.Pi*3*t) + 0.01*t
	}
	d, err = repeat(log, "sigproc.bandpass_probe", func() error {
		_, err := sigproc.BandPassFFT(x, 1/binSec, 0.05, 0.67)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["sigproc.bandpass_us_per_call"] = float64(d.Nanoseconds()) / 1e3
	return out, nil
}

// replayEngines feeds rs into one engine per user the way a shard
// worker does, ticking every engine once per second of stream time
// from one window in (or once at the end of a stream shorter than a
// window). It returns the time spent feeding, the time spent ticking,
// and the number of user-ticks.
func replayEngines(rs []reader.TagReport, cfg core.Config, window time.Duration) (feed, tick time.Duration, userTicks int) {
	engines := make(map[uint64]*core.Engine)
	var order []*core.Engine
	next := rs[0].Timestamp + window
	tickAll := func(asOf time.Duration) {
		t := time.Now()
		for _, e := range order {
			e.TickUpdate(asOf.Seconds())
			e.ResetTickStats()
			e.EvictBefore((asOf - window).Seconds())
		}
		tick += time.Since(t)
		userTicks += len(order)
	}
	start := time.Now()
	for _, r := range rs {
		if r.Timestamp >= next {
			tickAll(r.Timestamp)
			next += time.Second
		}
		uid := r.EPC.UserID()
		e, ok := engines[uid]
		if !ok {
			e = core.NewEngine(cfg, core.EngineOptions{Window: window.Seconds(), TickStride: 1, UserID: uid})
			engines[uid] = e
			order = append(order, e)
		}
		e.Feed(r)
	}
	if userTicks == 0 {
		tickAll(rs[len(rs)-1].Timestamp)
	}
	return time.Since(start) - tick, tick, userTicks
}
