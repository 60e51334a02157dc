// Command llrpsim runs the reader emulator as an LLRP server: an
// Impinj-style endpoint that hosts can connect to over TCP, configure,
// and stream low-level tag reports from — the role the physical R420
// plays in the paper's prototype (Fig. 11).
//
// Usage:
//
//	llrpsim [-listen :5084] [-readers N] [-users N] [-distance D] [-rate R] [-pace F]
//
// Port 5084 is the standard LLRP port. Each started ROSpec replays a
// fresh simulation of the configured scenario; -pace controls how fast
// simulated time advances relative to wall time (0 = as fast as
// possible, 1 = realtime).
//
// With -readers N the emulator serves N readers covering the same
// ward on N consecutive ports (the -listen port upward): every reader
// observes the same simulated users, each from its own antenna
// position, so a fleet gateway pointed at all N sees genuinely
// overlapping multi-reader coverage of one scene.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tagbreathe"
	"tagbreathe/internal/geom"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/trace"
)

func main() {
	var (
		listen    = flag.String("listen", ":5084", "TCP listen address (5084 is the standard LLRP port)")
		readers   = flag.Int("readers", 1, "simulated readers on consecutive ports from -listen, sharing one ward")
		spacing   = flag.Float64("reader-spacing", 2, "lateral antenna offset in meters between consecutive readers")
		users     = flag.Int("users", 1, "simulated users")
		distance  = flag.Float64("distance", 4, "distance in meters")
		rate      = flag.Float64("rate", 10, "breathing rate in bpm")
		duration  = flag.Duration("duration", 10*time.Minute, "simulated duration per ROSpec run")
		pace      = flag.Float64("pace", 1, "simulated-to-wall time ratio (0 = unpaced)")
		seed      = flag.Int64("seed", 1, "base random seed; each ROSpec run increments it")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz, and pprof on this address; empty disables")
	)
	flag.Parse()

	obs.SetLogger(obs.NewTextLogger(os.Stderr, slog.LevelInfo))
	logger := obs.Logger("llrpsim")
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	// With -debug-addr the emulator's protocol layer is observable:
	// connections, message counts by type, send-queue depth, and
	// streamed-report totals land on /metrics.
	var reg *tagbreathe.MetricsRegistry
	if *debugAddr != "" {
		reg = tagbreathe.NewMetricsRegistry()
		reg.PublishExpvar("llrpsim")
		dbg, err := tagbreathe.ServeDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		logger.Info("debug server up", "metrics", "http://"+dbg.Addr()+"/metrics")
	}

	if *readers < 1 {
		fatal(fmt.Errorf("-readers must be >= 1, got %d", *readers))
	}
	addrs, err := consecutiveAddrs(*listen, *readers)
	if err != nil {
		fatal(err)
	}

	// All readers observe the SAME ward: each run counter starts at the
	// same base seed, so run k of every reader replays one physical
	// scene (identical user motion and breathing) viewed from that
	// reader's own antenna position. Only the vantage differs — exactly
	// what a fleet gateway merging overlapping coverage expects.
	servers := make([]*llrp.Server, *readers)
	listeners := make([]net.Listener, *readers)
	for i := range servers {
		idx := i
		var runCounter atomic.Int64
		runCounter.Store(*seed)
		srv, err := llrp.NewServer(llrp.ServerConfig{
			KeepaliveEvery: 10 * time.Second,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf("reader %d: %s", idx, fmt.Sprintf(format, args...)))
			},
			Metrics: llrp.NewServerMetrics(reg),
			NewSource: func() llrp.ReportSource {
				runSeed := runCounter.Add(1)
				return llrp.ReportSourceFunc(func(ctx context.Context, emit func(reader.TagReport) error) error {
					return streamScenario(ctx, *users, *distance, *rate, *duration, *pace,
						runSeed, float64(idx)**spacing, emit)
				})
			},
		})
		if err != nil {
			fatal(err)
		}
		servers[i] = srv
		ln, err := net.Listen("tcp", addrs[i])
		if err != nil {
			fatal(err)
		}
		listeners[i] = ln
		logger.Info("listening", "reader", i, "addr", ln.Addr().String(), "users", *users,
			"distance_m", *distance, "rate_bpm", *rate, "pace", *pace,
			"antenna_offset_m", float64(i)**spacing)
	}

	// Graceful shutdown on SIGINT/SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	//tagbreathe:allow goroutineleak signal watcher lives for the process; it has no earlier exit to tie to
	go func() {
		<-sig
		logger.Info("shutting down")
		for _, srv := range servers {
			srv.Close()
		}
	}()

	var wg sync.WaitGroup
	for i := range servers {
		srv, ln := servers[i], listeners[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(ln); err != nil && err != net.ErrClosed {
				if opErr, ok := err.(*net.OpError); !ok || opErr.Err.Error() != "use of closed network connection" {
					logger.Error("serve", "err", err)
				}
			}
		}()
	}
	wg.Wait()
}

// consecutiveAddrs expands a base listen address into n addresses on
// consecutive ports. With n == 1 the address is used verbatim (so
// ":0" still works for a single ad-hoc reader); multi-reader serving
// needs an explicit numeric base port to count up from.
func consecutiveAddrs(listen string, n int) ([]string, error) {
	if n == 1 {
		return []string{listen}, nil
	}
	host, portStr, err := net.SplitHostPort(listen)
	if err != nil {
		return nil, fmt.Errorf("-listen %q: %w", listen, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port == 0 {
		return nil, fmt.Errorf("-listen %q: -readers %d needs an explicit numeric base port", listen, n)
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(port+i))
	}
	return addrs, nil
}

// streamScenario runs one simulation and replays its reports paced
// against the wall clock. antennaOffset displaces this reader's
// antenna laterally (meters along Y) so fleet readers sharing a seed
// see the same scene from distinct vantages.
func streamScenario(ctx context.Context, users int, distance, rate float64,
	duration time.Duration, pace float64, seed int64, antennaOffset float64,
	emit func(reader.TagReport) error) error {

	rates := make([]float64, users)
	for i := range rates {
		rates[i] = rate + float64(i)*3
	}
	sc := tagbreathe.DefaultScenario()
	sc.Users = tagbreathe.SideBySide(users, distance, rates...)
	sc.Duration = duration
	sc.Seed = seed
	if antennaOffset != 0 { //tagbreathe:allow floatcmp zero value means default geometry; exact sentinel
		// Same height as the default antenna (§VI-B.1: 1 m), shifted
		// laterally by the reader's slot in the rack.
		sc.Antennas = []tagbreathe.Antenna{{Port: 1, Position: geom.Vec3{Y: antennaOffset, Z: 1.0}}}
	}

	// The simulation generates the full trace synchronously and very
	// fast; pacing happens at emission time so the client sees a
	// realtime stream. Nothing is dropped as late: a slow client only
	// slows the replay.
	res, err := sc.Run()
	if err != nil {
		return err
	}
	return trace.NewReplay(res.Reports, pace, 0).Stream(ctx, emit)
}
