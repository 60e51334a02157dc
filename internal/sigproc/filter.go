package sigproc

import (
	"fmt"
	"math"

	"tagbreathe/internal/fmath"
)

// BandPassFFT filters x with an ideal ("brick-wall") frequency-domain
// band-pass filter keeping frequencies in [lowHz, highHz]. lowHz = 0
// keeps DC: the pure low-pass §IV-B of the paper applies with a 0.67 Hz
// cutoff. highHz must exceed lowHz. The input is not modified. The
// paper's pipeline uses the band-pass form with a small lowHz to remove
// the slow drift that noise integration adds to the displacement
// accumulation.
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
	spec := FFTReal(x)
	df := sampleRate / float64(n)
	for i := range spec {
		f := float64(i) * df
		if i > n/2 {
			f = float64(n-i) * df // mirror bin; same |frequency|
		}
		keep := f >= lowHz && f <= highHz
		if i == 0 && fmath.ExactZero(lowHz) {
			keep = true // DC passes a pure low-pass
		}
		if !keep {
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
	return out, nil
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
