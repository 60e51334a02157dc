package sigproc

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"tagbreathe/internal/fmath"
)

// naiveDFT is the O(n²) reference transform the fast implementations
// are checked against.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			acc += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = acc
	}
	return out
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Cover radix-2 sizes and Bluestein sizes, including primes.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 60, 64, 97, 100, 128} {
		x := randComplex(n, rng)
		got := FFT(x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g vs naive DFT", n, e)
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := FFT(nil); len(got) != 0 {
		t.Errorf("FFT(nil) = %v", got)
	}
	got := FFT([]complex128{3 + 4i})
	if len(got) != 1 || got[0] != 3+4i {
		t.Errorf("FFT of single sample = %v", got)
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 3, 8, 15, 16, 33, 64, 100, 255, 256} {
		x := randComplex(n, rng)
		back := IFFT(FFT(x))
		if e := maxErr(x, back); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round-trip error %g", n, e)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// The transform of a unit impulse is flat ones.
	x := make([]complex128, 16)
	x[0] = 1
	for i, v := range FFT(x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d of impulse spectrum = %v, want 1", i, v)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 24 // non-power-of-two exercises Bluestein
		a := randComplex(n, r)
		b := randComplex(n, r)
		alpha := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + alpha*b[i]
		}
		fa, fb, fsum := FFT(a), FFT(b), FFT(sum)
		for i := range fsum {
			if cmplx.Abs(fsum[i]-(fa[i]+alpha*fb[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	// Energy in time equals energy in frequency divided by n.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50
		x := randComplex(n, r)
		var et float64
		for _, v := range x {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		var ef float64
		for _, v := range FFT(x) {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(et-ef/float64(n)) < 1e-7*(1+et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFFTSinusoidPeak(t *testing.T) {
	// A pure sinusoid concentrates energy in its frequency bin.
	const n = 128
	const bin = 10
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(bin) * float64(i) / n)
	}
	spec := Magnitudes(FFTReal(x))
	best := 0
	for i := 1; i <= n/2; i++ {
		if spec[i] > spec[best] {
			best = i
		}
	}
	if best != bin {
		t.Errorf("sinusoid peak at bin %d, want %d", best, bin)
	}
}

func TestFrequencyBins(t *testing.T) {
	bins := FrequencyBins(8, 16)
	want := []float64{0, 2, 4, 6, 8, -6, -4, -2}
	for i, w := range want {
		if math.Abs(bins[i]-w) > 1e-12 {
			t.Errorf("bin %d = %v, want %v", i, bins[i], w)
		}
	}
	if got := FrequencyBins(0, 16); got != nil {
		t.Errorf("FrequencyBins(0) = %v, want nil", got)
	}
}

func TestDominantFrequency(t *testing.T) {
	const fs = 16.0
	const f0 = 0.25 // 15 bpm
	n := int(fs * 60)
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = 3*math.Sin(2*math.Pi*f0*ti) + 0.1*math.Sin(2*math.Pi*3*ti)
	}
	got, err := DominantFrequency(x, fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-f0) > 0.01 {
		t.Errorf("DominantFrequency = %v, want %v", got, f0)
	}
}

func TestDominantFrequencyErrors(t *testing.T) {
	if _, err := DominantFrequency([]float64{1, 2}, 10); err == nil {
		t.Error("expected error for short input")
	}
	if _, err := DominantFrequency(make([]float64, 64), 0); err == nil {
		t.Error("expected error for zero sample rate")
	}
}

func BenchmarkFFTRadix2_1024(b *testing.B) {
	x := randComplex(1024, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein_1000(b *testing.B) {
	x := randComplex(1000, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

// refRadix2 and refBluestein are the transforms as they stood before
// the plan cache, computing every twiddle and chirp directly on each
// call. They are the oracle the planned path must match bit for bit;
// the 1e-6 tolerances of the pipeline goldens would not see a drift in
// the last bits.
func refRadix2(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := 2 * math.Pi / float64(size) * sign
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				s, c := math.Sincos(step * float64(k))
				w := complex(c, s)
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

func refBluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(sign * math.Pi * float64(kk) / float64(n))
		w[k] = complex(c, s)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		conj := cmplx.Conj(w[k])
		b[k] = conj
		if k > 0 {
			b[m-k] = conj
		}
	}
	refRadix2(a, false)
	refRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	refRadix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * w[k]
	}
}

func refTransform(x []complex128, inverse bool) []complex128 {
	out := append([]complex128(nil), x...)
	n := len(out)
	switch {
	case n <= 1:
	case n&(n-1) == 0:
		refRadix2(out, inverse)
	default:
		refBluestein(out, inverse)
	}
	if inverse {
		for i := range out {
			out[i] /= complex(float64(n), 0)
		}
	}
	return out
}

func refFFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return refTransform(c, false)
}

// refDominantFrequency is DominantFrequency over the reference
// transform.
func refDominantFrequency(x []float64, sampleRate float64) float64 {
	spec := refFFTReal(Detrend(x))
	half := len(spec) / 2
	best, bestMag := 0, 0.0
	for i := 1; i <= half; i++ {
		if m := cmplx.Abs(spec[i]); m > bestMag {
			best, bestMag = i, m
		}
	}
	if best == 0 {
		return 0
	}
	df := sampleRate / float64(len(x))
	f := float64(best) * df
	if best > 1 && best < half {
		m1, m2, m3 := cmplx.Abs(spec[best-1]), bestMag, cmplx.Abs(spec[best+1])
		den := m1 - 2*m2 + m3
		if fmath.NonZero(den) {
			delta := 0.5 * (m1 - m3) / den
			if delta > -1 && delta < 1 {
				f = (float64(best) + delta) * df
			}
		}
	}
	return f
}

// resetFFTPlans empties the plan cache, so the next transforms build
// it from cold.
func resetFFTPlans() {
	twiddles.Store(nil)
	planOrder.Lock()
	for _, k := range planOrder.keys {
		plans.Delete(k)
	}
	planOrder.keys = nil
	planOrder.Unlock()
}

// cachedPlans counts the cached per-length plans of one kind.
func cachedPlans(kind planKind) int {
	count := 0
	plans.Range(func(k, _ any) bool {
		if k.(planKey).kind == kind {
			count++
		}
		return true
	})
	return count
}

// firstBitDiff returns the first index where a and b differ in any bit
// of either component, or -1.
func firstBitDiff(a, b []complex128) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

func firstRealBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// oracleLengths covers every radix-2 size up to 8192, primes (pure
// Bluestein), the ward's 399/400-bin windows and the batch's 959, and
// Bluestein sizes just past a power of two.
func oracleLengths() []int {
	var ns []int
	for n := 2; n <= 8192; n <<= 1 {
		ns = append(ns, n)
	}
	ns = append(ns, 3, 5, 7, 13, 31, 97, 257, 1021, 399, 400, 959, 1599, 4097)
	return ns
}

// oracleCase is one length's inputs and the reference outputs.
type oracleCase struct {
	n      int
	x      []complex128 // FFT and IFFT input
	signal []float64    // BandPassFFT and DominantFrequency input
	// Reference outputs.
	fft, ifft     []complex128
	band, lowPass []float64 // refBandPassFFT, checked within bandPassTol
	dominant      float64
}

const oracleRate = 16.0 // Hz: the monitor's 62.5 ms bins

func newOracleCase(n int, rng *rand.Rand) oracleCase {
	c := oracleCase{n: n, x: randComplex(n, rng), signal: make([]float64, n)}
	for i := range c.signal {
		ti := float64(i) / oracleRate
		c.signal[i] = math.Sin(2*math.Pi*0.25*ti) + 0.3*rng.NormFloat64() + 0.01*ti
	}
	c.fft = refTransform(c.x, false)
	c.ifft = refTransform(c.x, true)
	c.band = refBandPassFFT(c.signal, oracleRate, 0.05, 0.67)
	c.lowPass = refBandPassFFT(c.signal, oracleRate, 0, 0.67)
	c.dominant = refDominantFrequency(c.signal, oracleRate)
	return c
}

// check runs the planned path on c's inputs and reports any bit of FFT,
// IFFT or DominantFrequency that differs from the reference. BandPassFFT
// is no longer a pair of transforms, so it is held to the reference
// within bandPassTol instead.
func (c oracleCase) check() error {
	if i := firstBitDiff(FFT(c.x), c.fft); i >= 0 {
		return fmt.Errorf("n=%d: FFT differs from the reference at bin %d", c.n, i)
	}
	if i := firstBitDiff(IFFT(c.x), c.ifft); i >= 0 {
		return fmt.Errorf("n=%d: IFFT differs from the reference at sample %d", c.n, i)
	}
	for _, bp := range []struct {
		low  float64
		want []float64
	}{{0.05, c.band}, {0, c.lowPass}} {
		got, err := BandPassFFT(c.signal, oracleRate, bp.low, 0.67)
		if err != nil {
			return err
		}
		if err := bandPassClose(got, bp.want, c.signal); err != nil {
			return fmt.Errorf("n=%d: BandPassFFT [%v, 0.67]: %w", c.n, bp.low, err)
		}
	}
	if c.n >= 4 {
		got, err := DominantFrequency(c.signal, oracleRate)
		if err != nil {
			return err
		}
		if math.Float64bits(got) != math.Float64bits(c.dominant) {
			return fmt.Errorf("n=%d: DominantFrequency = %v, reference %v", c.n, got, c.dominant)
		}
	}
	return nil
}

func TestPlannedTransformsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var cases []oracleCase
	for _, n := range oracleLengths() {
		cases = append(cases, newOracleCase(n, rng))
	}
	// Ascending sizes grow the twiddle table step by step; descending
	// sizes read one large table with a stride from the start.
	for _, order := range []struct {
		name       string
		descending bool
	}{{"ascending", false}, {"descending", true}} {
		t.Run(order.name, func(t *testing.T) {
			sorted := append([]oracleCase(nil), cases...)
			sort.Slice(sorted, func(i, j int) bool { return (sorted[i].n < sorted[j].n) != order.descending })
			resetFFTPlans()
			for _, c := range sorted {
				if err := c.check(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestPlanCacheConcurrentColdStart races goroutines through a cold
// cache on mixed lengths, each starting at a different one, so plan
// insertion and twiddle-table growth collide; run it under -race. Every
// concurrent BandPassFFT must also return the bits of a serial call,
// which catches scratch shared between goroutines.
func TestPlanCacheConcurrentColdStart(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var cases []oracleCase
	for _, n := range []int{400, 4096, 399, 17, 959, 64, 2048, 1599, 97, 1024} {
		cases = append(cases, newOracleCase(n, rng))
	}
	serial := make([][]float64, len(cases))
	for i, c := range cases {
		var err error
		if serial[i], err = BandPassFFT(c.signal, oracleRate, 0.05, 0.67); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	for round := 0; round < 3; round++ {
		resetFFTPlans()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := range cases {
					k := (i + g) % len(cases)
					c := cases[k]
					got, err := BandPassFFT(c.signal, oracleRate, 0.05, 0.67)
					if err != nil {
						t.Error(err)
						continue
					}
					if j := firstRealBitDiff(got, serial[k]); j >= 0 {
						t.Errorf("round %d, worker %d, n=%d: concurrent BandPassFFT differs from a serial call at sample %d", round, g, c.n, j)
					}
					if err := c.check(); err != nil {
						t.Errorf("round %d, worker %d: %v", round, g, err)
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
}

func TestBluesteinPlanCacheBounded(t *testing.T) {
	resetFFTPlans()
	first := newOracleCase(5, rand.New(rand.NewSource(13)))
	if err := first.check(); err != nil {
		t.Fatal(err)
	}
	zeros := make([]complex128, 2048)
	swept := 0
	for n := 6; swept < 1000; n++ {
		if n&(n-1) == 0 {
			continue // radix-2 lengths need no Bluestein plan
		}
		FFT(zeros[:n])
		swept++
	}
	if got := cachedPlans(bluesteinKind); got > maxPlans {
		t.Errorf("%d Bluestein plans cached after sweeping %d lengths, cap %d", got, swept, maxPlans)
	}
	if _, ok := plans.Load(planKey{bluesteinKind, first.n}); ok {
		t.Fatalf("n=%d: plan still cached after the sweep; expected it evicted", first.n)
	}
	if err := first.check(); err != nil {
		t.Errorf("after eviction: %v", err)
	}
}
