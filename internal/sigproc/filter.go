package sigproc

import (
	"fmt"
	"math"
	"math/bits"

	"tagbreathe/internal/fmath"
)

// BandPassFFT filters x with an ideal ("brick-wall") frequency-domain
// band-pass filter keeping frequencies in [lowHz, highHz]. lowHz = 0
// keeps DC: the pure low-pass §IV-B of the paper applies with a 0.67 Hz
// cutoff. highHz must exceed lowHz. The input is not modified. The
// paper's pipeline uses the band-pass form with a small lowHz to remove
// the slow drift that noise integration adds to the displacement
// accumulation.
//
// The result equals the real part of IFFT(mask · FFTReal(x)), the
// filter as written; TestBandPassMatchesFFTRoute holds it to that within
// 1e-12·max|x|. The §IV-B band keeps a few dozen of a window's hundreds
// of bins, so while that is cheaper BandPassFFT computes only the kept
// bins by direct DFT and resynthesizes from them; wider bands and long
// windows take the transform route.
func BandPassFFT(x []float64, sampleRate, lowHz, highHz float64) ([]float64, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("sigproc: non-positive sample rate %v", sampleRate)
	}
	if lowHz < 0 || highHz <= lowHz {
		return nil, fmt.Errorf("sigproc: invalid band [%v, %v] Hz", lowHz, highHz)
	}
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	b := band{df: sampleRate / float64(n), low: lowHz, high: highHz}
	lo, hi := b.keptRange(n)
	if !directCheaper(n, hi-lo+1) {
		return bandPassTransform(x, b), nil
	}
	out := make([]float64, n)
	bandPassDirect(out, x, cachedPlan(bandDFTKind, n, newBandDFTPlan).tw, lo, hi)
	return out, nil
}

// band is a brick-wall pass band over the bins of an n-sample window,
// df = sampleRate/n apart.
type band struct {
	df, low, high float64
}

// keeps reports whether bin k ≤ n/2 (and its mirror n-k) passes. Both
// routes decide every bin here, so they agree on the edge bins.
func (b band) keeps(k int) bool {
	if k == 0 && fmath.ExactZero(b.low) {
		return true // DC passes a pure low-pass
	}
	f := float64(k) * b.df
	return f >= b.low && f <= b.high
}

// keptRange returns the kept bins of the lower half-spectrum, k in
// [lo, hi] with hi ≤ n/2; hi < lo when none is kept. Bin frequency is
// monotone in k, so the kept bins are contiguous.
func (b band) keptRange(n int) (lo, hi int) {
	lo, hi = 0, -1
	for k := 0; k <= n/2; k++ {
		if !b.keeps(k) {
			continue
		}
		if hi < lo {
			lo = k
		}
		hi = k
	}
	return lo, hi
}

// bandDFTBinCost is what one kept bin of the direct route costs per
// sample, in units of one sample of one radix-2 stage. Measured with go
// test -bench on a 2-vCPU Xeon over 256…16000-sample windows: 1.8–3.4
// ns against 2.8–5.0 ns, a ratio of 0.50–0.95 with median ~0.7.
const bandDFTBinCost = 0.7

// directCheaper reports whether the direct route over kept bins of an
// n-sample window costs less than the transform route: two radix-2
// transforms of n, or two Bluestein transforms of two radix-2
// transforms each of the padded length m ≥ 2n-1. Its cost grows as
// kept·n, quadratic in the window, so long windows go to the
// transform route.
func directCheaper(n, kept int) bool {
	m, transforms := n, 2
	if n&(n-1) != 0 {
		m, transforms = 1, 4
		for m < 2*n-1 {
			m <<= 1
		}
	}
	stages := bits.Len(uint(m)) - 1
	return float64(kept*n)*bandDFTBinCost <= float64(transforms*m*stages)
}

// bandDFTPlan is the per-length table of BandPassFFT's direct route.
type bandDFTPlan struct {
	// tw[j] is cos(2πj/n) + i·sin(2πj/n), j < n.
	tw []complex128
}

func newBandDFTPlan(n int) *bandDFTPlan {
	p := &bandDFTPlan{tw: make([]complex128, n)}
	for j := range p.tw {
		s, c := math.Sincos(2 * math.Pi * float64(j) / float64(n))
		p.tw[j] = complex(c, s)
	}
	return p
}

// bandPassDirect writes into out (zeroed, len(x)) the real signal whose
// spectrum is x's on bins [lo, hi] and their mirrors and zero elsewhere.
// For each kept bin k it forms X[k] = C - iS, with C = Σ x[j]·cos θ and
// S = Σ x[j]·sin θ at θ = 2πjk/n, and adds w·(C cos θ + S sin θ)/n to
// out[j]: the bin and its conjugate mirror together, so w is 2, except
// 1 for DC and Nyquist, which have no separate mirror.
//
// Samples j and n-j share cos θ and negate sin θ, so both sums and the
// synthesis run over pairs, one table read per pair: the pair's
// cosine part P accumulates in out[j] and its sine part Q in out[n-j],
// and a last pass turns them into out[j] = P+Q, out[n-j] = P-Q.
//
//tagbreathe:hotpath every FFT-mode tick of every user filters its window here
func bandPassDirect(out, x []float64, tw []complex128, lo, hi int) {
	n := len(x)
	pairs := (n - 1) / 2 // j in [1, pairs] pairs with n-j
	mid := -1            // an even window's self-mirrored sample n/2
	if n%2 == 0 {
		mid = n / 2
	}
	for k := lo; k <= hi; k++ {
		c, s := x[0], 0.0
		idx := 0
		for j := 1; j <= pairs; j++ {
			if idx += k; idx >= n {
				idx -= n
			}
			w := tw[idx]
			a, b := x[j], x[n-j]
			c += (a + b) * real(w)
			s += (a - b) * imag(w)
		}
		// At n/2, θ = πk: cos θ = ±1 and sin θ = 0.
		odd := k%2 == 1
		if mid > 0 {
			if odd {
				c -= x[mid]
			} else {
				c += x[mid]
			}
		}
		scale := 2 / float64(n)
		if k == 0 || 2*k == n {
			scale = 1 / float64(n)
		}
		c, s = c*scale, s*scale
		out[0] += c
		idx = 0
		for j := 1; j <= pairs; j++ {
			if idx += k; idx >= n {
				idx -= n
			}
			w := tw[idx]
			out[j] += c * real(w)
			out[n-j] += s * imag(w)
		}
		if mid > 0 {
			if odd {
				out[mid] -= c
			} else {
				out[mid] += c
			}
		}
	}
	for j := 1; j <= pairs; j++ {
		p, q := out[j], out[n-j]
		out[j], out[n-j] = p+q, p-q
	}
}

// bandPassTransform is the transform route: FFTReal, mask, inverse
// transform, real part.
func bandPassTransform(x []float64, b band) []float64 {
	n := len(x)
	spec := FFTReal(x)
	for i := range spec {
		if !b.keeps(min(i, n-i)) { // bin i > n/2 mirrors n-i
			spec[i] = 0
		}
	}
	fftInPlace(spec, true)
	// Dividing by the complex n, as IFFT does, keeps the output
	// bit-identical to IFFT(FFTReal(x)) after the mask.
	scale := complex(float64(n), 0)
	out := make([]float64, n)
	for i, v := range spec {
		out[i] = real(v / scale)
	}
	return out
}

// FIRLowPass designs a linear-phase FIR low-pass filter with the given
// number of taps (odd; even values are rounded up) using the windowed-
// sinc method with a Hamming window. The paper notes a FIR low-pass can
// substitute for the FFT filter; the ablation benchmarks compare both.
func FIRLowPass(taps int, sampleRate, cutoffHz float64) ([]float64, error) {
	if taps < 3 {
		return nil, fmt.Errorf("sigproc: FIR filter needs at least 3 taps, got %d", taps)
	}
	if sampleRate <= 0 || cutoffHz <= 0 || cutoffHz >= sampleRate/2 {
		return nil, fmt.Errorf("sigproc: cutoff %v Hz invalid for sample rate %v Hz", cutoffHz, sampleRate)
	}
	if taps%2 == 0 {
		taps++
	}
	h := make([]float64, taps)
	fc := cutoffHz / sampleRate // normalized cutoff in cycles/sample
	mid := taps / 2
	var sum float64
	for i := range h {
		m := float64(i - mid)
		var v float64
		if fmath.ExactZero(m) {
			v = 2 * math.Pi * fc
		} else {
			v = math.Sin(2*math.Pi*fc*m) / m
		}
		// Hamming window tapers the truncated sinc.
		v *= 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(taps-1))
		h[i] = v
		sum += v
	}
	// Normalize for unity DC gain.
	for i := range h {
		h[i] /= sum
	}
	return h, nil
}

// Convolve applies FIR coefficients h to x and returns a series of the
// same length as x, delay-compensated so the output aligns with the
// input (group delay of a linear-phase FIR is (len(h)-1)/2 samples).
// Edges are handled by reflecting the input.
func Convolve(x, h []float64) []float64 {
	n, m := len(x), len(h)
	if n == 0 || m == 0 {
		return nil
	}
	out := make([]float64, n)
	delay := (m - 1) / 2
	for i := 0; i < n; i++ {
		var acc float64
		for j := 0; j < m; j++ {
			k := i + delay - j
			// Reflect indices off both edges.
			for k < 0 || k >= n {
				if k < 0 {
					k = -k - 1
				}
				if k >= n {
					k = 2*n - k - 1
				}
			}
			acc += x[k] * h[j]
		}
		out[i] = acc
	}
	return out
}

// MovingAverage smooths x with a centered window of the given width
// (forced odd). It is used to estimate slow drift for detrending and as
// a cheap smoother for RSSI-based baselines.
func MovingAverage(x []float64, width int) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	out := make([]float64, n)
	// Prefix sums give O(n) evaluation regardless of window width.
	prefix := make([]float64, n+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	for i := 0; i < n; i++ {
		lo := i - half
		hi := i + half
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out
}
