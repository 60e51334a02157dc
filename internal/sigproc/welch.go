package sigproc

import (
	"fmt"
	"math"
)

// WelchPSD estimates the power spectral density of x (sampled at
// sampleRate) by Welch's method: Hann-windowed segments of segmentLen
// samples with 50% overlap, periodograms averaged. It returns the
// one-sided frequency axis and PSD estimate.
//
// Welch trades frequency resolution for variance: a narrowband but
// slightly wandering line (a heartbeat with HRV) that smears across
// many bins of a full-length FFT stays within one coarse Welch bin,
// while the noise floor's variance drops with the segment count —
// which is exactly what near-floor peak detection needs.
func WelchPSD(x []float64, sampleRate float64, segmentLen int) (freqs, psd []float64, err error) {
	if sampleRate <= 0 {
		return nil, nil, fmt.Errorf("sigproc: non-positive sample rate %v", sampleRate)
	}
	if segmentLen < 8 {
		return nil, nil, fmt.Errorf("sigproc: segment length %d too short", segmentLen)
	}
	if len(x) < segmentLen {
		return nil, nil, fmt.Errorf("sigproc: series of %d samples shorter than segment %d", len(x), segmentLen)
	}
	hop := segmentLen / 2
	// Hann window and its power normalization.
	window := make([]float64, segmentLen)
	var winPower float64
	for i := range window {
		window[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(segmentLen-1)))
		winPower += window[i] * window[i]
	}

	half := segmentLen/2 + 1
	psd = make([]float64, half)
	segments := 0
	buf := make([]complex128, segmentLen)
	for start := 0; start+segmentLen <= len(x); start += hop {
		seg := x[start : start+segmentLen]
		mean := Mean(seg)
		for i, v := range seg {
			buf[i] = complex((v-mean)*window[i], 0)
		}
		fftInPlace(buf, false)
		for k := 0; k < half; k++ {
			re, im := real(buf[k]), imag(buf[k])
			p := (re*re + im*im) / (winPower * sampleRate)
			if k != 0 && k != segmentLen/2 {
				p *= 2 // fold negative frequencies into the one-sided PSD
			}
			psd[k] += p
		}
		segments++
	}
	for k := range psd {
		psd[k] /= float64(segments)
	}
	freqs = make([]float64, half)
	df := sampleRate / float64(segmentLen)
	for k := range freqs {
		freqs[k] = float64(k) * df
	}
	return freqs, psd, nil
}
