package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/fleet"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
)

// The wire fleet: two loopback llrp.Server readers see the same ward
// from different antenna ports and RSSI, so every user has a primary
// and a redundant vantage. Their streams cross llrp.Session and
// fleet.Fleet (shedding by Monitor.VantageClass) into a core.Monitor
// running the streaming FIR filter, whose tick is cheap: the codec,
// TCP, session forward, fleet merge, demux and Engine.Feed dominate.
// Users churn at a steady rate, so IDs ever seen keep growing while
// the live count stays fixed.

const (
	wireUsers = 800
	// wireLifetime is how long one identity occupies a slot.
	wireLifetime = 240.0
	// wireSettle is how long a streaming estimate needs after a user
	// joins: the window plus the filter's group delay and warm-up.
	wireSettle = 40.0
)

// wirePrimeEnd lets the first occupants settle before measuring.
var wirePrimeEnd = defaultWin + 16500*time.Millisecond

// wireReaders are the two vantages: name, antenna port, RSSI.
var wireReaders = []struct {
	name    string
	antenna int
	rssi    float64
}{{"a", 1, -50}, {"b", 2, -58}}

// wireWards builds one ward per reader over the same people.
func wireWards(seed int64, users int) ([]*ward, error) {
	base := newWardConfig(seed, users, wireLifetime)
	var out []*ward
	for i, rd := range wireReaders {
		c := base
		c.antenna, c.rssi = rd.antenna, rd.rssi
		c.jitterSeed = int64(splitmix(uint64(seed) + uint64(i)))
		w, err := newWard(c)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// primeWire feeds steps [0, steps) of every ward straight into the
// monitor, stamped with its reader's name and merged in timestamp order
// — what the fleet would have delivered. It returns the report count.
// Jitter never carries a report past its step, so merging step by
// step keeps the whole stream ordered.
func primeWire(run *monitorRun, wards []*ward, steps int) uint64 {
	var a, b, merged []reader.TagReport
	for k := 0; k < steps; k++ {
		a = readerStep(wards[0], 0, k, a[:0])
		b = readerStep(wards[1], 1, k, b[:0])
		merged = merge(merged[:0], a, b)
		run.ingestAll(merged)
	}
	return uint64(steps * (wards[0].perStep() + wards[1].perStep()))
}

// readerStep is read step k of reader i's ward, stamped with its name.
func readerStep(w *ward, i, k int, dst []reader.TagReport) []reader.TagReport {
	n := len(dst)
	dst = w.step(k, dst)
	for j := n; j < len(dst); j++ {
		dst[j].ReaderID = wireReaders[i].name
	}
	return dst
}

// merge appends the timestamp-ordered merge of a and b to dst.
func merge(dst, a, b []reader.TagReport) []reader.TagReport {
	for len(a) > 0 && len(b) > 0 {
		if b[0].Timestamp < a[0].Timestamp {
			dst, b = append(dst, b[0]), b[1:]
		} else {
			dst, a = append(dst, a[0]), a[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// wireSource is one reader's report source: it waits for the paced
// phase to begin, then emits its ward's measured steps at real time.
// A reconnect resumes from the step the lost stream reached; turn
// keeps two streams of one source from overlapping.
type wireSource struct {
	p        *producer
	end      int
	start    <-chan struct{}
	turn     chan struct{}
	finished chan struct{}
}

func (s *wireSource) stream(ctx context.Context, emit func(reader.TagReport) error) error {
	select {
	case s.turn <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-s.turn }()
	select {
	case <-s.start:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.p.next >= s.end {
		return nil
	}
	if err := s.p.run(ctx, s.end, emit); err != nil {
		return err
	}
	close(s.finished)
	return nil
}

// feeder moves the fleet's merged stream into the monitor. Traced, it
// records every report's read lag (due time to leaving
// Fleet.Reports) and a fleet.deliver span for one report in
// deliverSample, spanning that same interval.
type feeder struct {
	consumed atomic.Uint64
	anchor   atomic.Int64 // clock anchor (UnixNano) once pacing starts
	origin   time.Duration
	log      *spanLog
	lagMs    []float64
	ingestUs []float64
	done     chan struct{}
}

func (fd *feeder) run(reports <-chan reader.TagReport, m *core.Monitor) {
	defer close(fd.done)
	for r := range reports {
		if fd.log != nil {
			now := time.Now()
			if a := fd.anchor.Load(); a != 0 {
				due := time.Unix(0, a).Add(r.Timestamp - fd.origin)
				fd.lagMs = append(fd.lagMs, float64(now.Sub(due))/1e6)
				if n := fd.consumed.Load(); n%deliverSample == 0 {
					fd.log.add("fleet.deliver", n, -1, int64(due.Sub(fd.log.epoch)), int64(now.Sub(fd.log.epoch)))
				}
			}
			s := fd.log.now()
			m.Ingest(r)
			e := fd.log.now()
			fd.log.add("core.ingest", fd.consumed.Load(), -1, s, e)
			fd.ingestUs = append(fd.ingestUs, float64(e-s)/1e3)
		} else {
			m.Ingest(r)
		}
		fd.consumed.Add(1)
	}
}

// deliverSample thins the fleet.deliver spans, which overlap one
// another and so carry no self time worth summing.
const deliverSample = 16

// wireRig is one set-up of the wire workload.
type wireRig struct {
	run     *monitorRun
	fl      *fleet.Fleet
	srvs    []*llrp.Server
	served  []chan struct{}
	sources []*wireSource
	start   chan struct{}
	fd      *feeder
	primed  uint64
}

// newWireRig builds the monitor, both readers and the fleet, waits for
// both links, and feeds the settle period straight into the monitor.
// lateBufs (one per reader) and ups are the sources' and collector's
// buffers, sized by the caller before its heap baseline.
func newWireRig(ctx context.Context, o runOpts, wards []*ward, primeSteps, endStep int, lateBufs [][]float64, ups []update) (*wireRig, error) {
	cfg := core.MonitorConfig{Pipeline: core.Config{Filter: core.FilterFIRStreaming}}
	var sess llrp.SessionConfig
	sess.ROSpec.ReportEveryN = 16
	if o.traced {
		cfg.Tracer = newTracer()
		sess.Tracer = cfg.Tracer
	}
	rig := &wireRig{start: make(chan struct{})}
	rig.run = startMonitor(cfg, wirePrimeEnd, ups)
	var readers []fleet.ReaderConfig
	for i, w := range wards {
		src := &wireSource{
			p:        &producer{w: w, next: w.stepAt(wirePrimeEnd.Seconds()), log: o.newLog(), emitName: "llrp.emit", lateMs: lateBufs[i][:0]},
			end:      endStep,
			start:    rig.start,
			turn:     make(chan struct{}, 1),
			finished: make(chan struct{}),
		}
		srv, err := llrp.NewServer(llrp.ServerConfig{NewSource: func() llrp.ReportSource {
			return llrp.ReportSourceFunc(src.stream)
		}})
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("benchmark: wire: %w", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("benchmark: wire: %w", err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = srv.Serve(ln) // net.ErrClosed after close; a live failure shows as a missing link below
		}()
		rig.srvs = append(rig.srvs, srv)
		rig.served = append(rig.served, served)
		rig.sources = append(rig.sources, src)
		readers = append(readers, fleet.ReaderConfig{Name: wireReaders[i].name, Addr: ln.Addr().String()})
	}
	m := rig.run.m
	fl, err := fleet.Start(ctx, fleet.Config{
		Readers: readers,
		Session: sess,
		ShedClass: func(r reader.TagReport) core.ShedClass {
			return m.VantageClass(r.EPC.UserID(), r.ReaderID, r.AntennaPort)
		},
	})
	if err != nil {
		rig.close()
		return nil, fmt.Errorf("benchmark: wire: %w", err)
	}
	rig.fl = fl
	upCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = fl.WaitUp(upCtx)
	cancel()
	if err != nil {
		rig.close()
		return nil, fmt.Errorf("benchmark: wire: readers not up: %w", err)
	}
	rig.fd = &feeder{origin: wirePrimeEnd, log: o.newLog(), done: make(chan struct{})}
	go rig.fd.run(fl.Reports(), m)
	rig.primed = primeWire(rig.run, wards, primeSteps)
	if err := rig.run.drained(rig.primed, time.Minute); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// close tears the rig down in dependency order and returns the
// monitor's kept updates.
func (rig *wireRig) close() []update {
	if rig.fl != nil {
		rig.fl.Close()
		rig.fl = nil
	}
	if rig.fd != nil {
		<-rig.fd.done
	}
	ups := rig.run.finish()
	for i, srv := range rig.srvs {
		srv.Close()
		<-rig.served[i]
	}
	rig.srvs = nil
	return ups
}

// fleetSheds sums the fleet's merge-level and session-level sheds.
func fleetSheds(st []fleet.ReaderStatus) (merge, session uint64, byClass map[string]uint64, reconnects uint64) {
	byClass = make(map[string]uint64)
	var all uint64
	for _, s := range st {
		merge += s.Shed
		reconnects += s.Reconnects
		for c, n := range s.ShedByClass {
			byClass[c] += n
			all += n
		}
	}
	return merge, all - merge, byClass, reconnects
}

func runWire(o runOpts) (*outcome, error) {
	wards, err := wireWards(o.seed, o.size(wireUsers))
	if err != nil {
		return nil, err
	}
	primeSteps := wards[0].stepAt(wirePrimeEnd.Seconds())
	endStep := primeSteps + wards[0].stepAt(float64(o.seconds))
	users := wards[0].cfg.users
	var lateBufs [][]float64
	for _, w := range wards {
		lateBufs = append(lateBufs, make([]float64, 0, (endStep-primeSteps)*w.perStep()))
	}
	// Departed users keep emitting for up to a window; a fifth more
	// than the live count covers them.
	upsBuf := make([]update, 0, (o.seconds+2)*users*6/5)

	var rig *wireRig
	var setups, setupWall []float64
	var baseline uint64
	for i := 0; i < o.setupCount(); i++ {
		if i == o.setupCount()-1 {
			baseline = liveHeap()
		}
		t0, c0 := time.Now(), cpuTime()
		rig, err = newWireRig(o.ctx, o, wards, primeSteps, endStep, lateBufs, upsBuf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		if i < o.setupCount()-1 {
			rig.close()
		}
	}
	defer rig.close()

	clk := clock{anchor: time.Now(), origin: wirePrimeEnd}
	for _, s := range rig.sources {
		s.p.clk = clk
	}
	rig.fd.anchor.Store(clk.anchor.UnixNano())
	ticks0 := rig.run.m.Ticks()
	start := sampleProc()
	close(rig.start)
	limit := time.After(time.Duration(o.seconds)*time.Second + time.Minute)
	for _, s := range rig.sources {
		select {
		case <-s.finished:
		case <-limit:
			return nil, fmt.Errorf("benchmark: wire: a reader did not finish its stream")
		case <-o.ctx.Done():
			return nil, o.ctx.Err()
		}
	}
	genWall := time.Since(clk.anchor)
	var offered uint64
	var lateMs, emitUs []float64
	for _, s := range rig.sources {
		offered += s.p.emitted
		lateMs = append(lateMs, s.p.lateMs...)
		emitUs = append(emitUs, s.p.emitUs...)
	}
	// Every offered report is consumed from the fleet or shed on the way.
	deadline := time.Now().Add(time.Minute)
	var mergeShed, sessShed, reconnects uint64
	var byClass map[string]uint64
	for {
		mergeShed, sessShed, byClass, reconnects = fleetSheds(rig.fl.Status())
		if rig.fd.consumed.Load()+mergeShed+sessShed >= offered {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("benchmark: wire: %d of %d reports never left the fleet",
				offered-rig.fd.consumed.Load()-mergeShed-sessShed, offered)
		}
		time.Sleep(time.Millisecond)
	}
	consumed := rig.fd.consumed.Load()
	if err := rig.run.drained(rig.primed+consumed, time.Minute); err != nil {
		return nil, err
	}
	ph := since(start)
	heap := liveHeap()
	goroutines := runtime.NumGoroutine()

	out := newOutcome(o)
	if o.traced {
		rig.run.monitorLayer(out.layer, ticks0)
		tracerLayer(out.layer, rig.run.cfg.Tracer)
		out.layer["fleet.read_lag_p50_ms"] = quantile(rig.fd.lagMs, 0.50)
		out.layer["fleet.read_lag_p99_ms"] = quantile(rig.fd.lagMs, 0.99)
		out.layer["fleet.shed_primary"] = float64(byClass[core.ShedPrimary.String()])
		out.layer["fleet.shed_redundant"] = float64(byClass[core.ShedRedundant.String()])
		out.layer["llrp.session_shed"] = float64(sessShed)
		out.layer["llrp.session_reconnects"] = float64(reconnects)
		out.layer["llrp.emit_blocked_s"] = sum(emitUs) / 1e6
	}
	m := rig.run.m
	processed, dropped := m.ProcessedReports(), m.DroppedReports()
	ups := rig.close()
	for _, s := range rig.sources {
		out.logs = append(out.logs, s.p.log)
	}
	out.logs = append(out.logs, rig.fd.log)
	if o.traced {
		out.ingest(rig.fd.ingestUs, genWall)
	}

	spec := newScoreSpec(wirePrimeEnd, o.seconds, wireSettle)
	sc := scoreUpdates(wards[0], spec, clk, ups)
	acct := accounts{
		offered:   rig.primed + offered,
		processed: processed,
		shed: map[string]uint64{
			"llrp.session": sessShed,
			"fleet.merge":  mergeShed,
			"core.demux":   dropped,
		},
		lossless: []string{"llrp.session", "core.demux"},
	}
	if reconnects > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d reader reconnects on loopback", reconnects))
	}
	out.finishPaced(sc, acct, offered, ph, genWall)
	out.e2e["setup_s"] = median(setups)
	out.record["setup_wall_s"] = median(setupWall)
	out.e2e["heap_bytes_per_user"] = float64(heap-min(heap, baseline)) / float64(users)
	out.gen(lateMs)
	out.proc(ph, offered, goroutines)
	out.record["filter"] = "fir-streaming"
	out.record["users"] = users
	out.record["users_tracked"] = len(m.LastUpdates())
	return out, nil
}

// wireProbeInput is the wire ward's own input for the layer probes:
// both readers' reports of the first probeUsers slots.
func wireProbeInput(seed int64) (probeInput, error) {
	wards, err := wireWards(seed, wireUsers)
	if err != nil {
		return probeInput{}, err
	}
	var rs, a, b []reader.TagReport
	tags := wards[0].perStep() / wards[0].cfg.users
	for k := 0; k < wards[0].stepAt(probeStream); k++ {
		a = readerStep(wards[0], 0, k, a[:0])[:probeUsers*tags]
		b = readerStep(wards[1], 1, k, b[:0])[:probeUsers*tags]
		rs = merge(rs, a, b)
	}
	return probeInput{reports: rs, filter: core.FilterFIRStreaming, window: defaultWin}, nil
}
