package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// monitorRun is a core.Monitor plus the goroutine that drains its
// updates, keeping those at or after keepFrom with their receive time.
type monitorRun struct {
	m      *core.Monitor
	mm     *core.MonitorMetrics
	cfg    core.MonitorConfig
	keep   time.Duration
	ups    []update // written by collect until done closes
	done   chan struct{}
	closed bool
}

// startMonitor builds the monitor (the part of set-up the monitor
// itself owns) and starts draining it into ups, which the caller sizes
// before its heap baseline so the kept updates stay out of the
// per-user heap figure.
func startMonitor(cfg core.MonitorConfig, keepFrom time.Duration, ups []update) *monitorRun {
	run := &monitorRun{mm: core.NewMonitorMetrics(nil), keep: keepFrom, ups: ups[:0], done: make(chan struct{})}
	cfg.Metrics = run.mm
	run.cfg = cfg
	run.m = core.NewMonitor(cfg)
	go run.collect()
	return run
}

func (run *monitorRun) collect() {
	defer close(run.done)
	for u := range run.m.Updates() {
		now := time.Now()
		if u.Time >= run.keep {
			run.ups = append(run.ups, update{uid: u.UserID, at: u.Time, bpm: u.RateBPM, recv: now})
		}
	}
}

// ingestAll feeds reports straight into the monitor.
func (run *monitorRun) ingestAll(rs []reader.TagReport) {
	for _, r := range rs {
		run.m.Ingest(r)
	}
}

// drained waits until the monitor has processed or dropped want
// reports: its queues are empty and its engines hold the whole input.
func (run *monitorRun) drained(want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		got := run.mm.Processed.Value() + run.mm.Dropped.Value()
		if got == want {
			return nil
		}
		if got > want {
			return fmt.Errorf("benchmark: monitor accounted %d reports, %d were ingested", got, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("benchmark: monitor accounted %d of %d reports before the timeout", got, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// finish closes the input, waits for the last update and stops the
// monitor. It returns the kept updates.
func (run *monitorRun) finish() []update {
	if !run.closed {
		run.closed = true
		run.m.CloseInput()
		<-run.done
		run.m.Stop()
	}
	return run.ups
}

// queueHighWater is the deepest any shard worker queue has been.
func (run *monitorRun) queueHighWater() float64 {
	workers := run.cfg.ShardWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	hw := 0.0
	for i := 0; i < workers; i++ {
		//tagbreathe:allow metrichygiene i ranges over the fixed shard worker pool, the labels the monitor itself registered
		if v := run.mm.WorkerQueueHighWater.With(core.WorkerLabel(i)).Value(); v > hw {
			hw = v
		}
	}
	return hw
}

// monitorLayer fills the monitor's own counters and histograms into a
// traced run's layer metrics. ticks0 is the tick count when the
// measured phase began.
func (run *monitorRun) monitorLayer(layer map[string]float64, ticks0 uint64) {
	m, mm := run.m, run.mm
	shed := m.ShedByClass()
	layer["core.shard_tick_p50_us"] = finite(mm.ShardTickSeconds.Quantile(0.50) * 1e6)
	layer["core.shard_tick_p99_us"] = finite(mm.ShardTickSeconds.Quantile(0.99) * 1e6)
	layer["core.dropped"] = float64(m.DroppedReports())
	layer["core.shed_primary"] = float64(shed[core.ShedPrimary.String()])
	layer["core.shed_redundant"] = float64(shed[core.ShedRedundant.String()])
	layer["core.ticks"] = float64(m.Ticks() - ticks0)
	layer["core.skipped_ticks"] = float64(m.SkippedTicks())
	layer["core.peak_stretch"] = float64(m.PeakTickStretch())
	layer["core.queue_high_water"] = run.queueHighWater()
	layer["core.users_tracked"] = float64(len(m.LastUpdates()))
}

// tracerLayer fills the obs.Tracer stage histograms into layer metrics.
func tracerLayer(layer map[string]float64, tr *obs.Tracer) {
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		h := tr.StageHistogram(s)
		layer["obs.stage."+s.String()+"_p50_us"] = finite(h.Quantile(0.50) * 1e6)
		layer["obs.stage."+s.String()+"_p99_us"] = finite(h.Quantile(0.99) * 1e6)
	}
}

// newTracer builds the sampled pipeline tracer of a traced run: one
// report in 127, with a ring deep enough for a second of traces.
func newTracer() *obs.Tracer {
	return obs.NewTracer(nil, obs.TracerConfig{SampleEvery: 127, RingSize: 4096})
}

// finite maps the NaN an empty histogram reports to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
