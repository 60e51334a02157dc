package sigproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sine builds fs-sampled samples of Σ amps[i]·sin(2π freqs[i] t).
func sine(n int, fs float64, freqs, amps []float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		ti := float64(i) / fs
		for j, f := range freqs {
			out[i] += amps[j] * math.Sin(2*math.Pi*f*ti)
		}
	}
	return out
}

// bandPower measures mean squared amplitude of x.
func bandPower(x []float64) float64 {
	var p float64
	for _, v := range x {
		p += v * v
	}
	return p / float64(len(x))
}

func TestLowPassFFTRemovesHighBand(t *testing.T) {
	const fs = 16.0
	n := int(fs * 60)
	low := sine(n, fs, []float64{0.2}, []float64{1})
	noisy := sine(n, fs, []float64{0.2, 3.0}, []float64{1, 1})
	filtered, err := BandPassFFT(noisy, fs, 0, 0.67)
	if err != nil {
		t.Fatal(err)
	}
	// The filtered signal should match the low component closely.
	var diff float64
	for i := range filtered {
		d := filtered[i] - low[i]
		diff += d * d
	}
	if rel := diff / float64(n) / bandPower(low); rel > 0.01 {
		t.Errorf("low-pass residual power ratio %v, want < 1%%", rel)
	}
}

func TestBandPassFFTRemovesDCAndDrift(t *testing.T) {
	const fs = 16.0
	n := int(fs * 100)
	x := sine(n, fs, []float64{0.2}, []float64{1})
	for i := range x {
		x[i] += 5 + 0.01*float64(i) // DC offset plus drift
	}
	filtered, err := BandPassFFT(x, fs, 0.05, 0.67)
	if err != nil {
		t.Fatal(err)
	}
	if m := math.Abs(Mean(filtered)); m > 0.05 {
		t.Errorf("band-passed mean %v, want ≈0", m)
	}
	// The 0.2 Hz component must survive with most of its power
	// (interior only: FFT filtering of a drifting signal rings at the
	// window edges).
	lo, hi := n/10, n*9/10
	if p := bandPower(filtered[lo:hi]); p < 0.3 {
		t.Errorf("in-band power %v after band-pass, want ≳0.45", p)
	}
}

func TestBandPassFFTValidation(t *testing.T) {
	x := make([]float64, 64)
	if _, err := BandPassFFT(x, 0, 0.1, 0.5); err == nil {
		t.Error("expected error for zero sample rate")
	}
	if _, err := BandPassFFT(x, 16, 0.5, 0.1); err == nil {
		t.Error("expected error for inverted band")
	}
	if _, err := BandPassFFT(x, 16, -1, 0.5); err == nil {
		t.Error("expected error for negative low edge")
	}
	out, err := BandPassFFT(nil, 16, 0.1, 0.5)
	if err != nil || out != nil {
		t.Errorf("empty input: got %v, %v", out, err)
	}
}

func TestFIRLowPassDesign(t *testing.T) {
	h, err := FIRLowPass(51, 16, 0.67)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 51 {
		t.Fatalf("taps = %d, want 51", len(h))
	}
	// Unity DC gain.
	var sum float64
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("DC gain %v, want 1", sum)
	}
	// Linear phase: symmetric taps.
	for i := range h {
		if math.Abs(h[i]-h[len(h)-1-i]) > 1e-12 {
			t.Fatalf("taps not symmetric at %d", i)
		}
	}
}

func TestFIRLowPassEvenTapsRoundedUp(t *testing.T) {
	h, err := FIRLowPass(50, 16, 0.67)
	if err != nil {
		t.Fatal(err)
	}
	if len(h)%2 != 1 {
		t.Errorf("taps = %d, want odd", len(h))
	}
}

func TestFIRLowPassValidation(t *testing.T) {
	if _, err := FIRLowPass(1, 16, 0.5); err == nil {
		t.Error("expected error for too few taps")
	}
	if _, err := FIRLowPass(11, 16, 9); err == nil {
		t.Error("expected error for cutoff above Nyquist")
	}
	if _, err := FIRLowPass(11, 0, 0.5); err == nil {
		t.Error("expected error for zero sample rate")
	}
}

func TestFIRFiltering(t *testing.T) {
	const fs = 16.0
	n := int(fs * 60)
	low := sine(n, fs, []float64{0.2}, []float64{1})
	noisy := sine(n, fs, []float64{0.2, 4.0}, []float64{1, 1})
	h, err := FIRLowPass(101, fs, 0.67)
	if err != nil {
		t.Fatal(err)
	}
	filtered := Convolve(noisy, h)
	if len(filtered) != n {
		t.Fatalf("output length %d, want %d", len(filtered), n)
	}
	// Delay-compensated: interior samples track the low component.
	var diff, ref float64
	for i := n / 10; i < n*9/10; i++ {
		d := filtered[i] - low[i]
		diff += d * d
		ref += low[i] * low[i]
	}
	if rel := diff / ref; rel > 0.02 {
		t.Errorf("FIR residual power ratio %v, want < 2%%", rel)
	}
}

func TestConvolveEdgeCases(t *testing.T) {
	if got := Convolve(nil, []float64{1}); got != nil {
		t.Errorf("Convolve(nil) = %v", got)
	}
	if got := Convolve([]float64{1, 2}, nil); got != nil {
		t.Errorf("Convolve(x, nil) = %v", got)
	}
	// Identity kernel returns the input.
	x := []float64{1, 2, 3, 4}
	got := Convolve(x, []float64{1})
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("identity convolution mismatch at %d", i)
		}
	}
}

func TestMovingAverage(t *testing.T) {
	x := []float64{1, 1, 1, 10, 1, 1, 1}
	got := MovingAverage(x, 3)
	if math.Abs(got[3]-4) > 1e-12 {
		t.Errorf("center = %v, want 4", got[3])
	}
	if math.Abs(got[0]-1) > 1e-12 {
		t.Errorf("edge = %v, want 1", got[0])
	}
	// A width-1 window is the identity.
	id := MovingAverage(x, 1)
	for i := range x {
		if id[i] != x[i] {
			t.Fatalf("width-1 mismatch at %d", i)
		}
	}
}

func TestMovingAveragePreservesMeanOfConstant(t *testing.T) {
	f := func(c float64, wRaw uint8) bool {
		// Huge magnitudes overflow the prefix sums; physical data
		// never approaches them.
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e300 {
			return true
		}
		x := make([]float64, 32)
		for i := range x {
			x[i] = c
		}
		w := int(wRaw%31) + 1
		for _, v := range MovingAverage(x, w) {
			if math.Abs(v-c) > 1e-9*(1+math.Abs(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMovingAverageMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	const width = 9
	got := MovingAverage(x, width)
	half := width / 2
	for i := range x {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi > len(x)-1 {
			hi = len(x) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += x[j]
		}
		want := sum / float64(hi-lo+1)
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("index %d: got %v want %v", i, got[i], want)
		}
	}
}
