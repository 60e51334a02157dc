// Package sigproc is the signal-processing substrate for TagBreathe: FFT
// and inverse FFT for arbitrary lengths, frequency-domain and FIR
// filtering, windowing, resampling of irregularly sampled series onto a
// uniform grid, detrending, zero-crossing detection, peak finding, and
// descriptive statistics.
//
// The paper's breath-extraction pipeline (§IV-B) is built from these
// parts: an FFT-based low-pass filter with a 0.67 Hz cutoff, an inverse
// FFT back to the time domain, and a zero-crossing rate estimator. The
// package has no dependencies beyond the standard library, and every
// exported function is a pure function over slices.
//
// The only package state is a transform plan cache, in the style of
// FFTW plans: one forward twiddle table sized for the longest
// power-of-two transform seen so far, and per-length plans of two
// kinds: Bluestein plans (the chirp and its padded transforms) and the
// sin/cos tables of BandPassFFT's in-band DFT. Plans are built on first
// use and then only read, so shard workers share them and a lookup
// takes no lock: the twiddle table is swapped in by compare-and-swap
// and per-length plans are published through a sync.Map. The table
// keeps m/2 entries for the largest m; at most maxPlans per-length
// plans are kept over both kinds, and the oldest is evicted and rebuilt
// if used again. A planned transform is bit-identical to one that
// computes every factor directly.
package sigproc

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
	"sync/atomic"

	"tagbreathe/internal/fmath"
)

// FFT computes the discrete Fourier transform of x and returns a new
// slice of the same length. Power-of-two lengths use an iterative
// radix-2 Cooley-Tukey transform; other lengths fall back to Bluestein's
// algorithm, so any length is supported in O(n log n). An empty input
// returns an empty output.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, false)
	return out
}

// IFFT computes the inverse discrete Fourier transform of x, normalized
// by 1/n, and returns a new slice of the same length.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, true)
	n := float64(len(out))
	for i := range out {
		out[i] /= complex(n, 0)
	}
	return out
}

// FFTReal transforms a real-valued series. It is a convenience wrapper
// that widens to complex128 and calls FFT.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	fftInPlace(c, false)
	return c
}

// fftInPlace dispatches on length: radix-2 for powers of two, Bluestein
// otherwise. inverse selects the conjugate-twiddle transform (without
// normalization; IFFT applies 1/n).
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, inverse)
		return
	}
	bluestein(x, inverse)
}

// twiddles holds the forward twiddle factors exp(-2πi j/m), j < m/2,
// for the largest power-of-two length m transformed so far. It only
// grows: a transform of size n ≤ m reads every (m/n)-th entry.
var twiddles atomic.Pointer[[]complex128]

// growTwiddles returns a forward twiddle table covering length n,
// replacing the shared one if it is shorter. Racing growers each build
// a table; the values are the same, so whichever wins serves all.
func growTwiddles(n int) []complex128 {
	for {
		cur := twiddles.Load()
		if cur != nil && 2*len(*cur) >= n {
			return *cur
		}
		t := make([]complex128, n/2)
		// Stage size s reads entry k·(n/s). Dividing the step by a power
		// of two and multiplying k by it is exact, so the entry is
		// bit-identical to the direct Sincos(step_s·k); Sincos is odd, so
		// its conjugate is bit-identical to the direct inverse twiddle.
		sign := -1.0
		step := 2 * math.Pi / float64(n) * sign
		for k := range t {
			s, c := math.Sincos(step * float64(k))
			t[k] = complex(c, s)
		}
		if twiddles.CompareAndSwap(cur, &t) {
			return t
		}
	}
}

// radix2 is an iterative in-place Cooley-Tukey FFT for power-of-two n.
// Twiddles come from the shared table: computing each one directly
// (rather than by a per-block recurrence, which accumulates error over
// long transforms) keeps the round-trip error near machine epsilon,
// which the property tests assert.
//
//tagbreathe:hotpath twice per Bluestein transform, every FFT-mode tick of every user
func radix2(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.Len(uint(n-1)))
	// Bit-reversal permutation.
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	var tw []complex128
	if p := twiddles.Load(); p != nil && 2*len(*p) >= n {
		tw = *p
	} else {
		//tagbreathe:allow hotpath the table grows only when a transform is longer than any before it
		tw = growTwiddles(n)
	}
	span := 2 * len(tw)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := span / size
		for start := 0; start < n; start += size {
			lo, hi := x[start:start+half], x[start+half:start+size]
			for k := range lo {
				w := tw[k*stride]
				if inverse {
					w = cmplx.Conj(w)
				}
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// maxPlans bounds how many per-length plans the cache keeps, over
// every kind. Steady-state callers cycle through a few window lengths;
// a caller sweeping arbitrary lengths evicts the oldest plans, which
// rebuild on their next use.
const maxPlans = 64

// planKind says which computation a cached plan serves.
type planKind uint8

const (
	bluesteinKind planKind = iota // *bluesteinPlan, for FFT and IFFT
	bandDFTKind                   // *bandDFTPlan, for BandPassFFT's direct route
)

// planKey names one cached plan.
type planKey struct {
	kind planKind
	n    int
}

var (
	plans     sync.Map // planKey -> *bluesteinPlan or *bandDFTPlan
	planOrder struct {
		sync.Mutex
		keys []planKey // cached keys, oldest first
	}
)

// cachedPlan returns the plan of the given kind for length n, building
// it with build and caching it on first use. Concurrent first uses may
// each build one; the first stored wins and the rest are dropped. A
// stored plan is never written again.
func cachedPlan[P any](kind planKind, n int, build func(n int) *P) *P {
	key := planKey{kind, n}
	if p, ok := plans.Load(key); ok {
		return p.(*P)
	}
	p, loaded := plans.LoadOrStore(key, build(n))
	if !loaded {
		o := &planOrder
		o.Lock()
		o.keys = append(o.keys, key)
		if len(o.keys) > maxPlans {
			plans.Delete(o.keys[0])
			o.keys = append(o.keys[:0], o.keys[1:]...)
		}
		o.Unlock()
	}
	return p.(*P)
}

// bluesteinPlan is the per-length state of the chirp z-transform.
type bluesteinPlan struct {
	// w is the forward chirp exp(-iπk²/n); the inverse chirp is its
	// (bit-exact) conjugate.
	w []complex128
	// chirpSpec[d] is the radix-2 transform of the zero-padded
	// conjugate chirp of direction d (0 forward, 1 inverse), length m.
	chirpSpec [2][]complex128
}

func newBluesteinPlan(n int) *bluesteinPlan {
	// Chirp factors w[k] = exp(-iπ k² / n). Using k² mod 2n keeps the
	// argument small and the sin/cos accurate for large k.
	p := &bluesteinPlan{w: make([]complex128, n)}
	sign := -1.0
	for k := range p.w {
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(sign * math.Pi * float64(kk) / float64(n))
		p.w[k] = complex(c, s)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	for d := range p.chirpSpec {
		b := make([]complex128, m)
		for k, wk := range p.w {
			conj := cmplx.Conj(wk)
			if d == 1 {
				conj = wk // conjugate of the inverse chirp
			}
			b[k] = conj
			if k > 0 {
				b[m-k] = conj
			}
		}
		radix2(b, false)
		p.chirpSpec[d] = b
	}
	return p
}

// bluestein computes an arbitrary-length DFT as a convolution, using a
// zero-padded power-of-two FFT of length ≥ 2n-1 (chirp z-transform).
// The chirp and its transform come from the length's cached plan, so a
// call costs two radix-2 transforms and no trigonometry.
func bluestein(x []complex128, inverse bool) {
	p := cachedPlan(bluesteinKind, len(x), newBluesteinPlan)
	d := 0
	if inverse {
		d = 1
	}
	spec := p.chirpSpec[d]
	m := len(spec)
	a := make([]complex128, m)
	for k, v := range x {
		wk := p.w[k]
		if inverse {
			wk = cmplx.Conj(wk)
		}
		a[k] = v * wk
	}
	radix2(a, false)
	for i := range a {
		a[i] *= spec[i]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := range x {
		wk := p.w[k]
		if inverse {
			wk = cmplx.Conj(wk)
		}
		x[k] = a[k] * scale * wk
	}
}

// Magnitudes returns |x[i]| for each bin of a spectrum.
func Magnitudes(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// FrequencyBins returns the frequency in Hz represented by each FFT bin
// for a transform of length n over samples spaced 1/sampleRate apart.
// Bins above n/2 are the usual negative frequencies and are reported as
// such (e.g. bin n-1 is -sampleRate/n).
func FrequencyBins(n int, sampleRate float64) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	df := sampleRate / float64(n)
	for i := range out {
		if i <= n/2 {
			out[i] = float64(i) * df
		} else {
			out[i] = float64(i-n) * df
		}
	}
	return out
}

// DominantFrequency returns the frequency (Hz) of the largest-magnitude
// positive-frequency bin of the real series x sampled at sampleRate,
// ignoring the DC bin. This is the "FFT peak" breathing-rate estimator
// the paper discusses (and improves upon) in §IV-B. It returns an error
// for series shorter than 4 samples or non-positive sample rates.
func DominantFrequency(x []float64, sampleRate float64) (float64, error) {
	if len(x) < 4 {
		return 0, fmt.Errorf("sigproc: series too short for spectral estimate: %d samples", len(x))
	}
	if sampleRate <= 0 {
		return 0, fmt.Errorf("sigproc: non-positive sample rate %v", sampleRate)
	}
	spec := FFTReal(Detrend(x))
	half := len(spec) / 2
	best, bestMag := 0, 0.0
	for i := 1; i <= half; i++ {
		if m := cmplx.Abs(spec[i]); m > bestMag {
			best, bestMag = i, m
		}
	}
	if best == 0 {
		return 0, nil
	}
	// Quadratic interpolation around the peak refines the estimate well
	// below the 1/w bin resolution the paper calls out as an FFT pitfall.
	df := sampleRate / float64(len(x))
	f := float64(best) * df
	if best > 1 && best < half {
		m1 := cmplx.Abs(spec[best-1])
		m2 := bestMag
		m3 := cmplx.Abs(spec[best+1])
		den := m1 - 2*m2 + m3
		if fmath.NonZero(den) {
			delta := 0.5 * (m1 - m3) / den
			if delta > -1 && delta < 1 {
				f = (float64(best) + delta) * df
			}
		}
	}
	return f, nil
}
