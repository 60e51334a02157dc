package core

import (
	"math"

	"tagbreathe/internal/fmath"
)

// FuseBins implements Eq. 6: displacement samples from all of a user's
// tags are summed per time bin of width binInterval seconds, producing
// one fused displacement value per bin over [t0, t1). Bins that no tag
// sampled contribute zero (no observed motion information). The fused
// per-bin stream is what Eq. 7 accumulates into the breathing waveform.
//
// Fusing raw displacements (rather than extracting per-tag and fusing
// results) adds the tags' signals coherently — all sites move outward
// together during inhalation (§IV-D.1) — while their independent phase
// noise adds incoherently, improving SNR by roughly √n, and it runs the
// expensive extraction once per user instead of once per tag (§IV-C).
//
// Each sample is spread over the interval it accrued across rather
// than deposited wholly into its ending bin as the paper's Eq. 6 reads:
// identical for dense reads, and markedly more robust when
// same-channel reads arrive seconds apart (heavy contention, sideways
// users).
func FuseBins(samples []DisplacementSample, binInterval, t0, t1 float64) []float64 {
	if binInterval <= 0 || t1 <= t0 {
		return nil
	}
	n := int((t1 - t0) / binInterval)
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for _, s := range samples {
		if s.T < t0 || s.T >= t1 {
			continue
		}
		lo, hi := s.TPrev, s.T
		if lo < t0 {
			lo = t0
		}
		if hi <= lo {
			// Degenerate span: deposit into the ending bin.
			i := clampBin(int((s.T-t0)/binInterval), n)
			out[i] += s.D
			continue
		}
		// Spread D uniformly over the bins the accrual interval
		// covers. With dense reads (span ≤ one bin) this degenerates
		// to the paper's per-bin sum; with sparse reads it linearly
		// interpolates the stream's trajectory instead of aliasing a
		// multi-second displacement into a single bin.
		first := clampBin(int((lo-t0)/binInterval), n)
		last := clampBin(int((hi-t0)/binInterval), n)
		span := hi - lo
		for i := first; i <= last; i++ {
			bLo := t0 + float64(i)*binInterval
			bHi := bLo + binInterval
			if bLo < lo {
				bLo = lo
			}
			if bHi > hi {
				bHi = hi
			}
			if bHi > bLo {
				out[i] += s.D * (bHi - bLo) / span
			}
		}
	}
	return out
}

// clampBin bounds a bin index into [0, n).
func clampBin(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// AntennaQuality scores one (user, antenna) stream for the selection
// policy of §IV-D.3: the reader evaluates data quality in terms of
// received signal strength and sampling rate and extracts breathing
// from the optimal antenna per user.
type AntennaQuality struct {
	UserID uint64
	// Reader names the vantage's reader; empty for the unnamed
	// single-reader case.
	Reader   string
	Antenna  int
	Reads    int
	ReadRate float64 // reads/s over the scored window
	MeanRSSI float64 // dBm
}

// Score combines rate and signal strength. Read rate dominates — the
// pipeline needs samples above all — with RSSI as a meaningful
// tiebreaker (a stronger link has lower phase noise). The weights put
// 1 dB of RSSI on par with 0.5 Hz of read rate.
func (q AntennaQuality) Score() float64 {
	rssiTerm := q.MeanRSSI + 90 // shift typical (-80..-40) positive
	if rssiTerm < 0 {
		rssiTerm = 0
	}
	return q.ReadRate + 0.5*rssiTerm
}

// fusedStats summarizes a fused bin stream for quality reporting.
func fusedStats(bins []float64) (rms float64, nonZero int) {
	var ss float64
	for _, v := range bins {
		ss += v * v
		if fmath.NonZero(v) {
			nonZero++
		}
	}
	if len(bins) > 0 {
		rms = math.Sqrt(ss / float64(len(bins)))
	}
	return rms, nonZero
}
