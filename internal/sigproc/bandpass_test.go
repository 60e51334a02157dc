package sigproc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tagbreathe/internal/fmath"
)

// refBandPassFFT is the filter as written in §IV-B, and BandPassFFT's
// whole body before the in-band DFT: FFTReal, brick-wall mask, inverse
// transform, real part. Its transforms are the planned ones, which
// TestPlannedTransformsBitIdentical pins bit for bit to refRadix2 and
// refBluestein; its mask is written out here rather than shared, so an
// edge bin that flips in the production mask shows.
func refBandPassFFT(x []float64, sampleRate, lowHz, highHz float64) []float64 {
	n := len(x)
	spec := FFTReal(x)
	df := sampleRate / float64(n)
	for i := range spec {
		f := float64(i) * df
		if i > n/2 {
			f = float64(n-i) * df
		}
		keep := f >= lowHz && f <= highHz
		if i == 0 && fmath.ExactZero(lowHz) {
			keep = true
		}
		if !keep {
			spec[i] = 0
		}
	}
	fftInPlace(spec, true)
	out := make([]float64, n)
	for i, v := range spec {
		out[i] = real(v / complex(float64(n), 0))
	}
	return out
}

// bandPassTol is how far BandPassFFT may sit from refBandPassFFT, per
// unit of the input's largest magnitude. The two sum the same spectrum
// in different orders; observed gaps are a few 1e-15.
const bandPassTol = 1e-12

// bandPassClose reports the first sample where got and want differ by
// more than bandPassTol·max|x|.
func bandPassClose(got, want, x []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, reference %d", len(got), len(want))
	}
	var peak float64
	for _, v := range x {
		peak = math.Max(peak, math.Abs(v))
	}
	tol := bandPassTol * peak
	for i := range got {
		if d := math.Abs(got[i] - want[i]); !(d <= tol) {
			return fmt.Errorf("sample %d = %v, reference %v (|diff| %.3g > %.3g)", i, got[i], want[i], d, tol)
		}
	}
	return nil
}

// firstTransformLength returns the shortest non-power-of-two window
// up to 8192 that the §IV-B band at oracleRate hands to the transform
// route, or -1.
func firstTransformLength(lowHz float64) int {
	for n := 8; n <= 8192; n++ {
		if n&(n-1) == 0 {
			continue
		}
		b := band{df: oracleRate / float64(n), low: lowHz, high: 0.67}
		if lo, hi := b.keptRange(n); !directCheaper(n, hi-lo+1) {
			return n
		}
	}
	return -1
}

func TestBandPassMatchesFFTRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lengths := append(oracleLengths(), 960, 1920)
	for _, low := range []float64{0.05, 0} {
		cross := firstTransformLength(low)
		if cross < 960 {
			t.Fatalf("[%v, 0.67] Hz at %v Hz: transform route from n=%d, want it between the batch window (960) and 8192", low, oracleRate, cross)
		}
		routes := map[bool]int{}
		for _, n := range append(lengths, cross-1, cross, cross+1) {
			if n < 8 {
				continue
			}
			x := make([]float64, n)
			for i := range x {
				ti := float64(i) / oracleRate
				x[i] = 2*math.Sin(2*math.Pi*0.3*ti) + 0.5*rng.NormFloat64() + 0.02*ti
			}
			got, err := BandPassFFT(x, oracleRate, low, 0.67)
			if err != nil {
				t.Fatal(err)
			}
			if err := bandPassClose(got, refBandPassFFT(x, oracleRate, low, 0.67), x); err != nil {
				t.Errorf("n=%d [%v, 0.67]: %v", n, low, err)
			}
			b := band{df: oracleRate / float64(n), low: low, high: 0.67}
			lo, hi := b.keptRange(n)
			routes[directCheaper(n, hi-lo+1)]++
		}
		if routes[true] == 0 || routes[false] == 0 {
			t.Errorf("[%v, 0.67]: %d lengths took the direct route and %d the transform route; want both", low, routes[true], routes[false])
		}
	}
}

// TestBandPassRoutes pins where the crossover sends the windows the
// pipeline uses: the monitor's 25 s and the batch's 60 s windows at
// 16 Hz go direct, multi-minute windows and wide bands take the
// transform route.
func TestBandPassRoutes(t *testing.T) {
	for _, c := range []struct {
		n            int
		low, high    float64
		direct       bool
		keptLo, keep int
	}{
		{400, 0.05, 0.67, true, 2, 15},     // monitor 25 s window
		{960, 0.05, 0.67, true, 3, 38},     // batch 60 s window; bin 3 is exactly 0.05 Hz
		{959, 0.05, 0.67, true, 3, 38},     // batch window one bin short
		{400, 0, 0.67, true, 0, 17},        // pure low-pass keeps DC
		{400, 0.05, 8, false, 2, 199},      // band to Nyquist
		{4800, 0.05, 0.67, true, 15, 187},  // 5 min window, near the crossover
		{9600, 0.05, 0.67, false, 30, 373}, // 10 min window
		{4096, 0.05, 0.67, false, 13, 159}, // radix-2 transforms are cheap
		{400, 0.05, 0.07, true, 0, 0},      // no bin in the band
	} {
		b := band{df: oracleRate / float64(c.n), low: c.low, high: c.high}
		lo, hi := b.keptRange(c.n)
		kept := hi - lo + 1
		if kept != c.keep || (kept > 0 && lo != c.keptLo) {
			t.Errorf("n=%d [%v, %v]: kept bins [%d, %d], want %d from %d", c.n, c.low, c.high, lo, hi, c.keep, c.keptLo)
		}
		if got := directCheaper(c.n, kept); got != c.direct {
			t.Errorf("n=%d [%v, %v], %d kept bins: direct route %v, want %v", c.n, c.low, c.high, kept, got, c.direct)
		}
	}
}

// TestBandPassPlansShareTheCap sweeps band-pass window lengths and
// Bluestein lengths together: the two kinds of plan live under one cap.
func TestBandPassPlansShareTheCap(t *testing.T) {
	resetFFTPlans()
	zeros := make([]complex128, 1024)
	for n := 200; n < 200+2*maxPlans; n++ {
		if _, err := BandPassFFT(make([]float64, n), oracleRate, 0.05, 0.67); err != nil {
			t.Fatal(err)
		}
		if n&(n-1) != 0 {
			FFT(zeros[:n])
		}
	}
	dft, blue := cachedPlans(bandDFTKind), cachedPlans(bluesteinKind)
	if dft == 0 || blue == 0 || dft+blue > maxPlans {
		t.Errorf("%d band-pass and %d Bluestein plans cached, want both kinds and at most %d together", dft, blue, maxPlans)
	}
}

// FuzzBandPass compares BandPassFFT with refBandPassFFT on random
// windows, sample rates and bands, either route.
func FuzzBandPass(f *testing.F) {
	f.Add(960, 16.0, 0.05, 0.67, int64(1))  // bin 3 sits exactly on 0.05 Hz
	f.Add(400, 16.0, 0.05, 0.67, int64(2))  // the monitor's window
	f.Add(400, 16.0, 0.0, 0.67, int64(3))   // lowHz = 0 keeps DC
	f.Add(30, 16.0, 6.0, 8.5, int64(4))     // reaches fs/2: Nyquist kept, direct route
	f.Add(400, 16.0, 0.05, 8.0, int64(5))   // Nyquist kept, transform route
	f.Add(31, 16.0, 7.0, 8.0, int64(6))     // odd window: no Nyquist bin
	f.Add(400, 16.0, 0.05, 0.07, int64(7))  // no bin in the band
	f.Add(4097, 16.0, 0.05, 0.67, int64(8)) // long Bluestein window
	f.Add(1920, 16.0, 0.0, 0.67, int64(9))  // two-minute window
	f.Fuzz(func(t *testing.T, n int, rate, low, high float64, seed int64) {
		n = 8 + ((n-8)%4089+4089)%4089 // [8, 4096]
		rng := rand.New(rand.NewSource(seed))
		amp := math.Exp(4 * rng.NormFloat64())
		x := make([]float64, n)
		for i := range x {
			x[i] = amp * (math.Sin(2*math.Pi*rng.Float64()*float64(i)/float64(n)) + rng.NormFloat64() + 3)
		}
		got, err := BandPassFFT(x, rate, low, high)
		if err != nil {
			t.Skip("BandPassFFT rejects the band")
		}
		if err := bandPassClose(got, refBandPassFFT(x, rate, low, high), x); err != nil {
			t.Errorf("n=%d rate=%v [%v, %v]: %v", n, rate, low, high, err)
		}
	})
}

func TestBandPassFFTAllocs(t *testing.T) {
	x := sine(400, oracleRate, []float64{0.25, 3}, []float64{1, 0.1})
	if _, err := BandPassFFT(x, oracleRate, 0.05, 0.67); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		_, _ = BandPassFFT(x, oracleRate, 0.05, 0.67)
	})
	// The output only: the direct route keeps no scratch.
	if allocs > 1 {
		t.Errorf("BandPassFFT(n=400) made %v allocations per call, want ≤ 1", allocs)
	}
}

var bandPassSink []float64

// BenchmarkBandPassFFT times BandPassFFT and, as ref, the transform
// route it replaces, on the monitor's 25 s window (400), the batch's
// 60 s window (959), two- and five-minute windows (1920, and 4800 near
// the crossover) and a 20-minute one (19200, past it, so both run the
// same route). scripts/bandpass_bench_smoke.sh gates on their ratios.
func BenchmarkBandPassFFT(b *testing.B) {
	for _, n := range []int{400, 959, 1920, 4800, 19200} {
		x := sine(n, oracleRate, []float64{0.25, 3}, []float64{1, 0.1})
		for _, route := range []struct {
			name   string
			filter func(b *testing.B) []float64
		}{
			{"BandPassFFT", func(b *testing.B) []float64 {
				out, err := BandPassFFT(x, oracleRate, 0.05, 0.67)
				if err != nil {
					b.Fatal(err)
				}
				return out
			}},
			{"ref", func(*testing.B) []float64 { return refBandPassFFT(x, oracleRate, 0.05, 0.67) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, route.name), func(b *testing.B) {
				// The first call builds the length's plan; measure the
				// calls after it, which every later tick makes.
				bandPassSink = route.filter(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bandPassSink = route.filter(b)
				}
			})
		}
	}
}
