// Command benchmark is the repository's benchmark. One invocation runs
// one workload from sim.Synth-generated input through the real core,
// llrp and fleet code, checks every output against the generator's
// ground truth, and prints its metrics. From the repository root:
//
//	bash benchmark/run.sh --workload ward_fft_paced --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - ward_fft_paced: in-process core.Monitor on shipped defaults (FFT
//     recompute) fed by one real-time producer.
//   - fleet_stream_wire: two loopback llrp.Server readers → sessions →
//     fleet.Fleet → streaming-FIR core.Monitor, with user churn.
//   - batch_estimate: closed-loop core.Estimate over 60 s windows.
//
// With --trace 0 the run is untraced and reports the end-to-end
// metrics. With --trace 1 it runs the workload twice for half the time
// each, untraced and then traced (spans from this package around each
// call into a layer, plus the pipeline's obs.Tracer), adds the
// single-threaded layer probes, writes the spans as CSV under
// .bench_build/spans/ and reports the per-layer metrics. The last line
// of standard output is the result as JSON; the line before it is the
// run record: host, Go version, seed, filter mode, how late the
// generator ran, update latency, and the failure and shed fractions.
//
// Set-up (setup_s) is everything before measured input can flow: for
// the paced workloads, building the monitor (and for the wire the two
// servers, fleet.Start and WaitUp) and feeding it the stream up to the
// first measured tick, until every report sits in an engine — the
// median of three set-ups. For batch_estimate it is the first Estimate
// of every window, so lazy initialisation shows. It is counted in
// process CPU seconds, like cpu_us_per_report, because other tenants
// of a shared host move wall-clock figures by a third from run to run;
// the wall time is in the run record as setup_wall_s.
//
// An operation is one update owed by a live, settled user on one tick
// (one user's estimate in one Estimate call for batch). It fails when
// it is missing, outside tolBPM of the truth, or later than one
// UpdateEvery. attempted counts operations plus offered reports;
// failed counts failed operations plus reports shed anywhere.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one named input the benchmark runs.
type workload struct {
	name  string
	run   func(runOpts) (*outcome, error)
	probe func(seed int64) (probeInput, error)
}

var workloads = []workload{
	{"ward_fft_paced", runWard, wardProbeInput},
	{"fleet_stream_wire", runWire, wireProbeInput},
	{"batch_estimate", runBatch, batchProbeInput},
}

// metricDef is one reported metric; bound applies to end-to-end ones.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees, from untraced
// runs. bound is the share of the parent's median by which a metric
// may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_us_per_report", "us", "lower", 0.25},
	{"heap_bytes_per_user", "B", "lower", 0.1},
	{"rate_accuracy", "ratio", "higher", 0.01},
}

// perLayer are the traced run's metrics of single layers.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"update_latency_p50_ms", "ms", "lower", 0},
		{"update_latency_p99_ms", "ms", "lower", 0},
		{"reports_per_s", "1/s", "higher", 0},
		{"sigproc.bandpass_us_per_call", "us", "lower", 0},
		{"core.engine_tick_us_per_user", "us", "lower", 0},
		{"core.shard_tick_p50_us", "us", "lower", 0},
		{"core.shard_tick_p99_us", "us", "lower", 0},
		{"core.differencer_ns_per_report", "ns", "lower", 0},
		{"core.engine_feed_ns_per_report", "ns", "lower", 0},
		{"core.ingest_p99_us", "us", "lower", 0},
		{"core.ingest_busy_frac", "ratio", "lower", 0},
		{"sim.gen_late_p50_ms", "ms", "lower", 0},
		{"sim.gen_late_p99_ms", "ms", "lower", 0},
		{"core.emit_spread_p99_ms", "ms", "lower", 0},
		{"llrp.encode_ns_per_report", "ns", "lower", 0},
		{"llrp.decode_ns_per_report", "ns", "lower", 0},
		{"llrp.emit_blocked_s", "s", "lower", 0},
		{"fleet.read_lag_p50_ms", "ms", "lower", 0},
		{"fleet.read_lag_p99_ms", "ms", "lower", 0},
		{"llrp.session_shed", "count", "lower", 0},
		{"llrp.session_reconnects", "count", "lower", 0},
		{"fleet.shed_primary", "count", "lower", 0},
		{"fleet.shed_redundant", "count", "lower", 0},
		{"core.dropped", "count", "lower", 0},
		{"core.shed_primary", "count", "lower", 0},
		{"core.shed_redundant", "count", "lower", 0},
		{"core.ticks", "count", "higher", 0},
		{"core.skipped_ticks", "count", "lower", 0},
		{"core.peak_stretch", "count", "lower", 0},
		{"core.queue_high_water", "count", "lower", 0},
		{"core.users_tracked", "count", "lower", 0},
		{"core.estimate_ms_per_call", "ms", "lower", 0},
		{"proc.alloc_bytes_per_report", "B", "lower", 0},
		{"proc.gc_cycles", "count", "lower", 0},
		{"proc.goroutines", "count", "lower", 0},
		{"obs.trace_overhead_frac", "ratio", "lower", 0},
	}
	for _, st := range []string{"read", "forward", "ingest", "demux", "worker", "feed", "emit"} {
		defs = append(defs,
			metricDef{"obs.stage." + st + "_p50_us", "us", "lower", 0},
			metricDef{"obs.stage." + st + "_p99_us", "us", "lower", 0})
	}
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"span." + l + "_self_ms", "ms", "lower", 0})
	}
	return defs
}()

// wallMetrics are measured on the wall clock, which other tenants of a
// shared host move run to run: the update latency quantiles (every
// update of one tick leaves the monitor together, so a run holds one
// latency sample per tick, and on the wire workload, about 10 ms, their
// spread over seeds was 0.4-0.6) and the batch throughput (spread 0.3
// while CPU per report held within 0.05). They are reported in the run
// record of untraced runs and, from the traced run's untraced half, as
// per-layer metrics, but bound nothing.
var wallMetrics = []string{"update_latency_p50_ms", "update_latency_p99_ms", "reports_per_s"}

// spanLayers are the layers the benchmark's own spans enter.
var spanLayers = []string{"sim", "llrp", "core"}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same input")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := runOpts{ctx: ctx, seed: *seed, seconds: *seconds, epoch: time.Now(), spanDir: filepath.Join(".bench_build", "spans")}
	res, err := measure(*wl, o, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	res.printTable(stderr)
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is what one invocation prints.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   []metricDef
	values    map[string]float64
	record    map[string]any
}

// measure runs one workload: once untraced, or, for a traced run, an
// untraced and a traced half plus the probes.
func measure(wl workload, o runOpts, traced bool) (*result, error) {
	res := &result{workload: wl.name, values: make(map[string]float64)}
	var outs []*outcome
	if !traced {
		out, err := wl.run(o)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		res.metrics = endToEnd
		for _, m := range endToEnd {
			res.values[m.name] = out.e2e[m.name]
		}
		for _, k := range wallMetrics {
			out.record[k] = out.e2e[k]
		}
	} else {
		o.seconds = max(1, o.seconds/2)
		base, err := wl.run(o)
		if err != nil {
			return nil, err
		}
		o.traced = true
		tr, err := wl.run(o)
		if err != nil {
			return nil, err
		}
		outs = append(outs, base, tr)
		res.metrics = perLayer
		for k, v := range tr.layer {
			res.values[k] = v
		}
		for _, k := range wallMetrics {
			res.values[k] = base.e2e[k]
		}
		if c := base.e2e["cpu_us_per_report"]; c > 0 {
			res.values["obs.trace_overhead_frac"] = tr.e2e["cpu_us_per_report"]/c - 1
		}
		self := selfTime(tr.logs)
		for _, l := range spanLayers {
			res.values["span."+l+"_self_ms"] = float64(self[l].Microseconds()) / 1e3
		}
		in, err := wl.probe(o.seed)
		if err != nil {
			return nil, err
		}
		plog := newSpanLog(o.epoch)
		probes, err := runProbes(in, plog)
		if err != nil {
			return nil, err
		}
		for k, v := range probes {
			res.values[k] = v
		}
		path := filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.csv", wl.name, o.seed))
		if err := writeSpans(path, append(tr.logs, plog)); err != nil {
			return nil, err
		}
		tr.record["spans_file"] = path
	}
	var problems []string
	for _, out := range outs {
		res.attempted += out.attempted
		res.failed += out.failed
		problems = append(problems, out.problems...)
	}
	res.correct = len(problems) == 0
	last := outs[len(outs)-1]
	res.record = last.record
	res.record["workload"] = wl.name
	res.record["trace"] = traced
	res.record["problems"] = problems
	for k, v := range hostRecord() {
		res.record[k] = v
	}
	return res, nil
}

// hostRecord fingerprints the machine and toolchain of a run.
func hostRecord() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  model,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// printTable writes every metric by name with its unit, for people.
func (r *result) printTable(w io.Writer) {
	fmt.Fprintf(w, "%s  correct=%v  attempted=%d  failed=%d\n", r.workload, r.correct, r.attempted, r.failed)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, r.values[m.name], m.unit)
	}
	for _, k := range []string{"update_latency_p50_ms", "update_latency_p99_ms", "latency_samples", "reports_per_s", "setup_wall_s", "failed_frac", "shed_frac", "gen_late_p99_ms", "worst_err_bpm"} {
		if v, ok := r.record[k]; ok {
			fmt.Fprintf(w, "  %-34s %14v\n", k, v)
		}
	}
	if p, ok := r.record["problems"].([]string); ok && len(p) > 0 {
		fmt.Fprintf(w, "  problems: %s\n", strings.Join(p, "; "))
	}
}

// write prints the run record line and then the result line.
func (r *result) write(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{Value: r.values[m.name], Unit: m.unit}
	}
	rec, err := json.Marshal(map[string]any{"run_record": r.record})
	if err != nil {
		return fmt.Errorf("benchmark: record: %w", err)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return fmt.Errorf("benchmark: result: %w", err)
	}
	if _, err := fmt.Fprintf(w, "%s\n%s\n", rec, line); err != nil {
		return fmt.Errorf("benchmark: write: %w", err)
	}
	return nil
}
