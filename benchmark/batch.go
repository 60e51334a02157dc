package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/reader"
)

// Batch Estimate: closed-loop core.Estimate (Workers = GOMAXPROCS)
// over fixed, pre-generated 60 s multi-user windows — the paper
// evaluation path. Each user costs one long Bluestein transform across
// the worker pool, with no queues, pacing or wire, so a change tuned to
// the monitor's 25 s windows that costs long ones shows here.

const (
	batchWindows = 12
	batchUsers   = 12
	batchStream  = 60.0
)

// batchWards builds the windows' wards: distinct people per window.
func batchWards(seed int64, users int) ([]*ward, error) {
	var out []*ward
	for i := 0; i < batchWindows; i++ {
		c := newWardConfig(int64(splitmix(uint64(seed)+uint64(i))>>1), users, 0)
		c.firstID = 1 + uint64(i)*1_000_000
		w, err := newWard(c)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// fingerprint hashes every field of every estimate, floats by their
// bits, so two results match only when bit-identical.
func fingerprint(est map[uint64]*core.UserEstimate) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	ids := make([]uint64, 0, len(est))
	for id := range est {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := est[id]
		put(id)
		f(e.RateBPM)
		h.Write([]byte(e.ReaderID))
		put(uint64(e.AntennaPort))
		put(uint64(e.Reads))
		put(uint64(e.TagsSeen))
		f(e.FusedRMS)
		for _, s := range e.RateSeries {
			f(s.T)
			f(s.V)
		}
		if sig := e.Signal; sig != nil {
			f(sig.T0)
			f(sig.SampleRate)
			for _, v := range sig.Samples {
				f(v)
			}
			for _, c := range sig.Crossings {
				f(c.T)
				if c.Rising {
					put(1)
				}
			}
		}
	}
	return h.Sum64()
}

// judgeWindow counts the window's users whose estimate is missing or
// outside the rate tolerance, and sums their Eq. 8 accuracy.
func judgeWindow(w *ward, est map[uint64]*core.UserEstimate) (bad int, accSum, worst float64) {
	for slot := 0; slot < w.cfg.users; slot++ {
		e, ok := est[w.identity(slot, 0)]
		if !ok {
			bad++
			continue
		}
		truth := w.truthBPM(slot)
		err := math.Abs(e.RateBPM - truth)
		worst = math.Max(worst, err)
		accSum += core.Accuracy(e.RateBPM, truth)
		if err > tolBPM {
			bad++
		}
	}
	return bad, accSum, worst
}

func runBatch(o runOpts) (*outcome, error) {
	wards, err := batchWards(o.seed, o.size(batchUsers))
	if err != nil {
		return nil, err
	}
	wins := make([][]reader.TagReport, len(wards))
	perPass := 0
	for i, w := range wards {
		for k := 0; k < w.stepAt(batchStream); k++ {
			wins[i] = w.step(k, wins[i])
		}
		perPass += len(wins[i])
	}
	cfg := core.Config{Workers: runtime.GOMAXPROCS(0)}
	out := newOutcome(o)

	// Set-up: the first Estimate of every window, which pays any lazy
	// initialisation, kept out of the measured phase.
	baseline := liveHeap()
	t0, c0 := time.Now(), cpuTime()
	first := make([]uint64, len(wins))
	for i, win := range wins {
		est, err := core.Estimate(win, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchmark: batch: %w", err)
		}
		first[i] = fingerprint(est)
	}
	out.e2e["setup_s"] = (cpuTime() - c0).Seconds()
	out.record["setup_wall_s"] = time.Since(t0).Seconds()

	// The sequential reference and the verdict against truth, outside
	// any timing.
	ref := make([]uint64, len(wins))
	bad := make([]int, len(wins))
	var accSum, worst float64
	users := 0
	for i, win := range wins {
		est, err := core.Estimate(win, core.Config{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("benchmark: batch: %w", err)
		}
		ref[i] = fingerprint(est)
		if first[i] != ref[i] {
			out.problems = append(out.problems, fmt.Sprintf("window %d: set-up Estimate differs from the Workers: 1 reference", i))
		}
		var a, wst float64
		bad[i], a, wst = judgeWindow(wards[i], est)
		accSum += a
		worst = math.Max(worst, wst)
		users += wards[i].cfg.users
	}

	log := o.newLog()
	var lat []float64
	calls, failed, mismatched := 0, 0, 0
	var reports uint64
	start := sampleProc()
	end := start.wall.Add(time.Duration(o.seconds) * time.Second)
	for calls < len(wins) || time.Now().Before(end) {
		i := calls % len(wins)
		s, t := log.now(), time.Now()
		est, err := core.Estimate(wins[i], cfg)
		lat = append(lat, float64(time.Since(t))/1e6)
		log.add("core.estimate", uint64(calls), -1, s, log.now())
		if err != nil {
			return nil, fmt.Errorf("benchmark: batch: %w", err)
		}
		if fingerprint(est) != ref[i] {
			mismatched++
			failed += wards[i].cfg.users
		} else {
			failed += bad[i]
		}
		reports += uint64(len(wins[i]))
		calls++
	}
	ph := since(start)
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	// Steady state: the input plus one result per window live, as an
	// evaluation holding every window's estimates.
	lat = nil
	kept := make([]map[uint64]*core.UserEstimate, len(wins))
	for i, win := range wins {
		if kept[i], err = core.Estimate(win, cfg); err != nil {
			return nil, fmt.Errorf("benchmark: batch: %w", err)
		}
	}
	heap := liveHeap()
	runtime.KeepAlive(kept)
	runtime.KeepAlive(wins) // generator input, part of the baseline

	if mismatched > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d Estimate calls differ from the Workers: 1 reference", mismatched))
	}
	for i := range bad {
		if bad[i] > 0 {
			out.problems = append(out.problems, fmt.Sprintf("window %d: %d users missing or outside the rate tolerance", i, bad[i]))
		}
	}
	ops := calls * users / len(wins)
	out.attempted = ops + int(reports)
	out.failed = failed
	out.e2e["update_latency_p50_ms"] = p50
	out.e2e["update_latency_p99_ms"] = p99
	out.e2e["reports_per_s"] = float64(reports) / ph.wall.Seconds()
	out.e2e["cpu_us_per_report"] = float64(ph.cpu.Microseconds()) / float64(reports)
	out.e2e["heap_bytes_per_user"] = float64(heap-min(heap, baseline)) / float64(users)
	out.e2e["rate_accuracy"] = accSum / float64(users)
	out.layer["core.estimate_ms_per_call"] = ph.wall.Seconds() * 1e3 / float64(calls)
	out.proc(ph, reports, runtime.NumGoroutine())
	out.logs = append(out.logs, log)
	out.record["filter"] = "fft"
	out.record["users"] = users
	out.record["calls"] = calls
	out.record["latency_samples"] = calls
	out.record["expected_updates"] = ops
	out.record["failed_frac"] = frac(failed, ops)
	out.record["shed_frac"] = 0.0
	out.record["worst_err_bpm"] = worst
	out.record["offered_reports"] = reports
	return out, nil
}

// batchProbeInput is the first batch window, for the layer probes.
func batchProbeInput(seed int64) (probeInput, error) {
	wards, err := batchWards(seed, batchUsers)
	if err != nil {
		return probeInput{}, err
	}
	w := wards[0]
	return probeInput{reports: firstSlots(w, w.cfg.users, w.stepAt(batchStream)), filter: core.FilterFFT, window: time.Duration(batchStream * float64(time.Second))}, nil
}
