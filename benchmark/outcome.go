package main

import (
	"context"
	"time"
)

// runOpts configures one measured phase of a workload.
type runOpts struct {
	ctx     context.Context
	seed    int64
	seconds int  // measured phase length
	traced  bool // record spans and the pipeline tracer
	epoch   time.Time
	// spanDir receives a traced run's span file.
	spanDir string
	// users and setups override the workload's size and set-up count
	// (0 = defaults); the smoke tests shrink runs with them.
	users  int
	setups int
}

func (o runOpts) size(def int) int {
	if o.users > 0 {
		return o.users
	}
	return def
}

// setupCount is how many times a run sets up; setup_s is the median.
func (o runOpts) setupCount() int {
	if o.setups > 0 {
		return o.setups
	}
	return 3
}

// newLog returns a fresh span log for one goroutine of a traced run, or
// nil when untraced.
func (o runOpts) newLog() *spanLog {
	if !o.traced {
		return nil
	}
	return newSpanLog(o.epoch)
}

// outcome is everything one measured phase reports.
type outcome struct {
	problems []string
	// attempted counts owed updates plus offered reports; failed counts
	// owed updates that failed plus reports shed.
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	record            map[string]any
	logs              []*spanLog
}

func newOutcome(o runOpts) *outcome {
	return &outcome{
		e2e:    make(map[string]float64),
		layer:  make(map[string]float64),
		record: map[string]any{"seed": o.seed, "seconds": o.seconds},
	}
}

// finishPaced folds a paced phase's score and report ledger into the
// outcome. reports is how many reports the measured phase offered, and
// genWall how long offering them took.
func (out *outcome) finishPaced(sc score, acct accounts, reports uint64, ph phase, genWall time.Duration) {
	shed, problems := acct.check()
	out.problems = append(out.problems, problems...)
	if sc.outOfBand > 0 {
		out.problems = append(out.problems, "estimates outside the rate tolerance")
	}
	out.attempted = sc.expected + int(acct.offered)
	out.failed = sc.failed + int(shed)
	out.e2e["update_latency_p50_ms"] = quantile(sc.latenciesMs, 0.50)
	out.e2e["update_latency_p99_ms"] = quantile(sc.latenciesMs, 0.99)
	out.e2e["reports_per_s"] = float64(reports) / genWall.Seconds()
	out.e2e["cpu_us_per_report"] = float64(ph.cpu.Microseconds()) / float64(reports)
	out.e2e["rate_accuracy"] = sc.accuracy()
	out.layer["core.emit_spread_p99_ms"] = quantile(sc.emitSpreadsMs, 0.99)
	out.record["latency_samples"] = len(sc.latenciesMs)
	out.record["expected_updates"] = sc.expected
	out.record["failed_frac"] = frac(sc.failed, sc.expected)
	out.record["missing"] = sc.missing
	out.record["out_of_band"] = sc.outOfBand
	out.record["late"] = sc.late
	out.record["worst_err_bpm"] = sc.worstErrBPM
	out.record["shed_frac"] = frac(int(shed), int(acct.offered))
	out.record["offered_reports"] = acct.offered
}

// gen records how late the open-loop generator ran.
func (out *outcome) gen(lateMs []float64) {
	p50, p99 := quantile(lateMs, 0.50), quantile(lateMs, 0.99)
	out.layer["sim.gen_late_p50_ms"] = p50
	out.layer["sim.gen_late_p99_ms"] = p99
	out.record["gen_late_p50_ms"] = p50
	out.record["gen_late_p99_ms"] = p99
}

// proc records the process-level costs of the measured phase.
func (out *outcome) proc(ph phase, reports uint64, goroutines int) {
	out.layer["proc.alloc_bytes_per_report"] = float64(ph.allocBytes) / float64(reports)
	out.layer["proc.gc_cycles"] = float64(ph.gcCycles)
	out.layer["proc.goroutines"] = float64(goroutines)
}

// ingest records the time the producer spent inside core.Monitor.Ingest
// (blocking included).
func (out *outcome) ingest(us []float64, wall time.Duration) {
	out.layer["core.ingest_busy_frac"] = sum(us) / 1e6 / wall.Seconds()
	out.layer["core.ingest_p99_us"] = quantile(us, 0.99)
}

func frac(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
