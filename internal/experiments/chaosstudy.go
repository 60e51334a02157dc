package experiments

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"tagbreathe/internal/chaos"
	"tagbreathe/internal/core"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/sim"
	"tagbreathe/internal/trace"
)

// ChaosPoint is one row of the transport-resilience study: one fault
// script played against a live reader link while the monitor runs.
type ChaosPoint struct {
	// Script names the fault schedule.
	Script string
	// Faults is the number of injected fault steps.
	Faults int
	// Conns is how many connections the endpoint accepted over the run
	// (1 = the link never dropped).
	Conns uint64
	// Reconnects and WatchdogTrips count the session supervisor's
	// recoveries and watchdog-forced redials.
	Reconnects    uint64
	WatchdogTrips uint64
	// Updates is the number of realtime estimates delivered; MaxGapS
	// the longest stream-time gap between consecutive updates — the
	// blackout a ward display would have shown.
	Updates int
	MaxGapS float64
	// Accuracy is the Eq. 8 accuracy of the final realtime estimate
	// against ground truth (0 when no estimate survived the run).
	Accuracy float64
}

// chaosSpeed is the stream-to-wall time ratio the study replays at:
// fast enough that a scripted two-minute ward run costs ~2 s of wall
// clock, slow enough that backoff and watchdog timing stay realistic
// relative to the compressed stream.
const chaosSpeed = 60.0

// ChaosStudy plays scripted fault schedules — disconnects, silent
// stalls, corrupt frames, and a mixed sequence — against a supervised
// reader session carrying a live monitoring run, and reports what the
// resilience layer actually delivered: how many times the link died,
// how fast estimates kept flowing, and whether the final estimate was
// still right. Each script is a deterministic chaos.RunScript schedule
// over one seeded trace, so rows are reproducible run to run (modulo
// scheduler jitter in where exactly a fault lands mid-stream).
func ChaosStudy(o Options) ([]ChaosPoint, error) {
	o = o.withDefaults()
	wall := time.Duration(float64(o.Duration) / chaosSpeed)
	const watchdog = 300 * time.Millisecond

	// Fault schedules, placed relative to the compressed wall-clock run.
	// Step.After is relative to the previous step.
	scripts := []struct {
		name  string
		steps []chaos.Step
	}{
		{name: "clean"},
		{name: "disconnect x2", steps: []chaos.Step{
			{After: wall * 35 / 100, Act: func(p *chaos.Proxy) { p.Disconnect() }},
			{After: wall * 30 / 100, Act: func(p *chaos.Proxy) { p.Disconnect() }},
		}},
		{name: "stall past watchdog", steps: []chaos.Step{
			{After: wall * 40 / 100, Act: func(p *chaos.Proxy) { p.StallFor(watchdog + 200*time.Millisecond) }},
		}},
		{name: "corrupt frames", steps: []chaos.Step{
			{After: wall * 40 / 100, Act: func(p *chaos.Proxy) { p.CorruptNext(512) }},
		}},
		{name: "mixed", steps: []chaos.Step{
			{After: wall * 30 / 100, Act: func(p *chaos.Proxy) { p.Disconnect() }},
			{After: wall * 25 / 100, Act: func(p *chaos.Proxy) { p.StallFor(watchdog + 200*time.Millisecond) }},
			{After: wall * 25 / 100, Act: func(p *chaos.Proxy) { p.CorruptNext(512) }},
		}},
	}

	out := make([]ChaosPoint, 0, len(scripts))
	for si, s := range scripts {
		p, err := runChaosScript(o, int64(si), s.name, s.steps, watchdog)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos script %q: %w", s.name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// runChaosScript runs one scripted fault schedule end to end:
// simulated trace → paced LLRP server → fault proxy → supervised
// session → live monitor.
func runChaosScript(o Options, seedOff int64, name string, steps []chaos.Step, watchdog time.Duration) (ChaosPoint, error) {
	sc := sim.DefaultScenario()
	sc.Duration = o.Duration
	sc.Seed = o.Seed + seedOff
	res, err := sc.Run()
	if err != nil {
		return ChaosPoint{}, err
	}
	uid := res.UserIDs[0]
	truth := res.TrueRateBPM[uid]

	// Reconnections resume at the current stream position: reports due
	// over 100 ms ago fell due while the link was down and are lost.
	src := trace.NewReplay(res.Reports, chaosSpeed, 100*time.Millisecond)
	srv, err := llrp.NewServer(llrp.ServerConfig{
		NewSource:      func() llrp.ReportSource { return src },
		KeepaliveEvery: 50 * time.Millisecond,
	})
	if err != nil {
		return ChaosPoint{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ChaosPoint{}, err
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-serveDone
	}()

	proxy, err := chaos.NewProxy(ln.Addr().String())
	if err != nil {
		return ChaosPoint{}, err
	}
	defer proxy.Close()

	smetrics := llrp.NewSessionMetrics(nil)
	start := time.Now()
	src.Start(start) // replay clock starts with the session
	//tagbreathe:allow ctxflow self-contained study harness; the replay wall clock bounds the run and StopSession tears it down
	sess, err := llrp.StartSession(context.Background(), llrp.SessionConfig{
		Addr:        proxy.Addr(),
		ROSpec:      llrp.ROSpecConfig{ROSpecID: 1, ReportEveryN: 8},
		DialTimeout: 2 * time.Second,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Watchdog:    watchdog,
		Metrics:     smetrics,
	})
	if err != nil {
		return ChaosPoint{}, err
	}
	defer sess.Close()

	mon := core.NewMonitor(core.MonitorConfig{
		Pipeline:    core.Config{Users: res.UserIDs, Filter: core.FilterFIRStreaming},
		UpdateEvery: time.Second,
	})
	var pumps sync.WaitGroup
	pumps.Add(1)
	go func() {
		defer pumps.Done()
		for r := range sess.Reports() {
			mon.Ingest(r)
		}
		mon.CloseInput()
	}()
	var (
		mu       sync.Mutex
		updates  int
		maxGap   time.Duration
		lastTime time.Duration
		lastBPM  float64
	)
	pumps.Add(1)
	go func() {
		defer pumps.Done()
		for u := range mon.Updates() {
			if u.UserID != uid {
				continue
			}
			mu.Lock()
			updates++
			if lastTime > 0 && u.Time-lastTime > maxGap {
				maxGap = u.Time - lastTime
			}
			lastTime = u.Time
			lastBPM = u.RateBPM
			mu.Unlock()
		}
	}()

	//tagbreathe:allow ctxflow the script context is this study run's root; cancelScript fires at teardown below
	scriptCtx, cancelScript := context.WithCancel(context.Background())
	var script sync.WaitGroup
	script.Add(1)
	go func() {
		defer script.Done()
		_ = proxy.RunScript(scriptCtx, steps)
	}()

	// The replay is wall-clock anchored, so the run's length is fixed
	// regardless of how much of the stream the faults ate.
	_ = trace.NewPacer(start, chaosSpeed).Wait(scriptCtx, o.Duration+30*time.Second)

	cancelScript()
	script.Wait()
	reconnects := sess.Reconnects()
	sess.Close()
	pumps.Wait()
	mon.Stop()

	p := ChaosPoint{
		Script:        name,
		Faults:        len(steps),
		Conns:         proxy.TotalConns(),
		Reconnects:    reconnects,
		WatchdogTrips: uint64(smetrics.WatchdogTrips.Value()),
	}
	mu.Lock()
	p.Updates = updates
	p.MaxGapS = maxGap.Seconds()
	if updates > 0 {
		p.Accuracy = core.Accuracy(lastBPM, truth)
	}
	mu.Unlock()
	return p, nil
}
