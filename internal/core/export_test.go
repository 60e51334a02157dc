package core

// Test-only oracles: the batch reference implementations the streaming
// engine and the spreading fuser are checked against. They are not
// part of the production API; external tests (package core_test) reach
// them through this file.

import (
	"sort"

	"tagbreathe/internal/fmath"
	"tagbreathe/internal/reader"
)

// FuseBinsLiteral is the paper's Eq. 6 verbatim: each displacement
// sample is deposited wholly into the bin containing its later
// reading's timestamp. With dense reads it matches FuseBins; with
// sparse streams it aliases multi-second displacements into single
// bins, which is what FuseBins' interval spreading avoids.
func FuseBinsLiteral(samples []DisplacementSample, binInterval, t0, t1 float64) []float64 {
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
		out[clampBin(int((s.T-t0)/binInterval), n)] += s.D
	}
	return out
}

// RankAntennas computes per-(user, antenna) quality over a report
// window of spanSeconds and returns, per user, qualities sorted best
// first. Only reports for allowed users are considered. It is the
// batch-selection reference for the engine's §IV-D.3 selection.
func RankAntennas(reports []reader.TagReport, cfg Config, spanSeconds float64) map[uint64][]AntennaQuality {
	if spanSeconds <= 0 {
		spanSeconds = 1
	}
	type key struct {
		user    uint64
		antenna int
	}
	counts := make(map[key]int)
	rssiSum := make(map[key]float64)
	for _, r := range reports {
		uid := epcUserID(r.EPC)
		if !cfg.allowsUser(uid) {
			continue
		}
		k := key{uid, r.AntennaPort}
		counts[k]++
		rssiSum[k] += float64(r.RSSI)
	}
	out := make(map[uint64][]AntennaQuality)
	for k, c := range counts {
		out[k.user] = append(out[k.user], AntennaQuality{
			UserID:   k.user,
			Antenna:  k.antenna,
			Reads:    c,
			ReadRate: float64(c) / spanSeconds,
			MeanRSSI: rssiSum[k] / float64(c),
		})
	}
	for uid := range out {
		qs := out[uid]
		sort.Slice(qs, func(i, j int) bool {
			si, sj := qs[i].Score(), qs[j].Score()
			if !fmath.ExactEq(si, sj) {
				return si > sj
			}
			return qs[i].Antenna < qs[j].Antenna // deterministic order
		})
	}
	return out
}

// SelectAntenna returns the optimal antenna port for each user given
// ranked qualities; users with no reads are absent from the result.
func SelectAntenna(ranked map[uint64][]AntennaQuality) map[uint64]int {
	out := make(map[uint64]int, len(ranked))
	for uid, qs := range ranked {
		if len(qs) > 0 {
			out[uid] = qs[0].Antenna
		}
	}
	return out
}
