package main

import (
	"fmt"
	"runtime"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/reader"
)

// The FFT ward: an in-process core.Monitor on shipped defaults (FFT
// recompute filter, 25 s window, 1 s ticks, OverloadBlock, one shard
// worker per CPU) fed by one real-time producer. Each tick re-filters
// every user's whole window, so the per-tick sigproc work and the tick
// barrier dominate; no wire is involved.

const (
	wardUsers  = 600
	tolBPM     = 1.0 // about twice the worst settled error over seed runs (FFT 0.59 bpm, streaming 0.57)
	defaultWin = 25 * time.Second
	tickEvery  = time.Second
)

// wardPrimeEnd is where set-up stops feeding the ward: half a second
// before the first analysis tick, so every tick is measured and paced.
var wardPrimeEnd = defaultWin - 500*time.Millisecond

func runWard(o runOpts) (*outcome, error) {
	w, err := newWard(newWardConfig(o.seed, o.size(wardUsers), 0))
	if err != nil {
		return nil, err
	}
	cfg := core.MonitorConfig{}
	if o.traced {
		cfg.Tracer = newTracer()
	}
	primeSteps := w.stepAt(wardPrimeEnd.Seconds())
	measureSteps := w.stepAt(float64(o.seconds))
	primed := uint64(primeSteps * w.perStep())
	// The producer's and collector's buffers exist before the heap
	// baseline, so heap_bytes_per_user is the monitor's alone.
	lateBuf := make([]float64, 0, measureSteps*w.perStep())
	upsBuf := make([]update, 0, (o.seconds+2)*w.cfg.users)

	// Set-up: NewMonitor and feeding the first window, generated on the
	// fly, until every report sits in an engine. Repeated; the last one
	// stays.
	var run *monitorRun
	var setups, setupWall []float64
	var baseline uint64
	for i := 0; i < o.setupCount(); i++ {
		if i == o.setupCount()-1 {
			baseline = liveHeap()
		}
		t0, c0 := time.Now(), cpuTime()
		run = startMonitor(cfg, wardPrimeEnd, upsBuf)
		var buf []reader.TagReport
		for k := 0; k < primeSteps; k++ {
			buf = w.step(k, buf[:0])
			run.ingestAll(buf)
		}
		if err := run.drained(primed, time.Minute); err != nil {
			run.finish()
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		if i < o.setupCount()-1 {
			run.finish()
		}
	}
	defer run.finish()

	p := &producer{w: w, log: o.newLog(), emitName: "core.ingest", lateMs: lateBuf}
	p.clk = clock{anchor: time.Now(), origin: wardPrimeEnd}
	ticks0 := run.m.Ticks()
	start := sampleProc()
	p.next = primeSteps
	err = p.run(o.ctx, primeSteps+measureSteps, func(r reader.TagReport) error {
		if !run.m.Ingest(r) {
			return fmt.Errorf("benchmark: monitor stopped during the run")
		}
		return nil
	})
	genWall := time.Since(p.clk.anchor)
	if err != nil {
		return nil, err
	}
	offered := primed + p.emitted
	if err := run.drained(offered, time.Minute); err != nil {
		return nil, err
	}
	ph := since(start)
	heap := liveHeap()
	goroutines := runtime.NumGoroutine()

	out := newOutcome(o)
	if o.traced {
		run.monitorLayer(out.layer, ticks0)
		tracerLayer(out.layer, cfg.Tracer)
	}
	ups := run.finish()
	spec := newScoreSpec(wardPrimeEnd, o.seconds, defaultWin.Seconds())
	sc := scoreUpdates(w, spec, p.clk, ups)
	acct := accounts{
		offered:   offered,
		processed: run.m.ProcessedReports(),
		shed:      map[string]uint64{"core.demux": run.m.DroppedReports()},
		lossless:  []string{"core.demux"},
	}
	out.finishPaced(sc, acct, p.emitted, ph, genWall)
	out.e2e["setup_s"] = median(setups)
	out.record["setup_wall_s"] = median(setupWall)
	out.e2e["heap_bytes_per_user"] = float64(heap-min(heap, baseline)) / float64(w.cfg.users)
	out.gen(p.lateMs)
	out.proc(ph, p.emitted, goroutines)
	if o.traced {
		out.ingest(p.emitUs, genWall)
		out.logs = append(out.logs, p.log)
	}
	out.record["filter"] = "fft"
	out.record["users"] = w.cfg.users
	return out, nil
}

// wardProbeInput is the ward's own input for the layer probes: the
// first probeUsers slots over probeStream seconds.
func wardProbeInput(seed int64) (probeInput, error) {
	w, err := newWard(newWardConfig(seed, wardUsers, 0))
	if err != nil {
		return probeInput{}, err
	}
	return probeInput{reports: firstSlots(w, probeUsers, w.stepAt(probeStream)), filter: core.FilterFFT, window: defaultWin}, nil
}

// firstSlots returns the reports of slots below n over steps [0, steps).
func firstSlots(w *ward, n, steps int) []reader.TagReport {
	tags := w.perStep() / w.cfg.users
	var out []reader.TagReport
	var buf []reader.TagReport
	for k := 0; k < steps; k++ {
		buf = w.step(k, buf[:0])
		out = append(out, buf[:n*tags]...)
	}
	return out
}
