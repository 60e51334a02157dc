package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median of a sample; xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime returns the process's user+system CPU time from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// procSample is the process state a measured phase differences.
type procSample struct {
	cpu        time.Duration
	wall       time.Time
	totalAlloc uint64
	numGC      uint32
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{cpu: cpuTime(), wall: time.Now(), totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
}

// phase is what a measured phase cost the process.
type phase struct {
	cpu        time.Duration
	wall       time.Duration
	allocBytes uint64
	gcCycles   uint32
}

func since(p procSample) phase {
	q := sampleProc()
	return phase{
		cpu:        q.cpu - p.cpu,
		wall:       q.wall.Sub(p.wall),
		allocBytes: q.totalAlloc - p.totalAlloc,
		gcCycles:   q.numGC - p.numGC,
	}
}
