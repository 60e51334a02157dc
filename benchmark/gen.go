package main

import (
	"fmt"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
)

// ward is one vantage's view of a simulated ward: sim.Synth supplies
// every report closed-form, and ward adds the parts Synth has no notion
// of — churn (slot identities that change over time) and the ground
// truth the scorer checks estimates against. Two wards built from the
// same wardConfig but different antennas, RSSI and jitter seeds see the
// same people from two vantages.
type ward struct {
	cfg wardConfig
	syn *sim.Synth
	dt  float64 // read-step period, seconds
}

// wardConfig sizes a ward. Everything except the vantage fields is
// derived from the workload seed, so one seed gives one ward.
type wardConfig struct {
	users int
	// baseBPM is slot 0's breathing rate; slot u breathes at
	// baseBPM + u mod 25 (Synth's default spread), 6–33 bpm.
	baseBPM float64
	// firstID is the identity of slot 0's first occupant.
	firstID uint64
	// lifetime is how long one occupant stays in a slot before a new
	// identity replaces it; 0 disables churn. Slots are staggered by
	// offset so identities leave and join at a steady rate.
	lifetime float64
	offset   float64
	// Vantage: the reader's antenna port, reported RSSI and jitter seed.
	antenna    int
	rssi       float64
	jitterSeed int64
}

// newWardConfig derives the seed-dependent part of a ward.
func newWardConfig(seed int64, users int, lifetime float64) wardConfig {
	u := float64(splitmix(uint64(seed))>>11) / (1 << 53) // [0, 1)
	return wardConfig{
		users:      users,
		baseBPM:    6 + 2*u,
		firstID:    1 + uint64(seed%1000)*1_000_000,
		lifetime:   lifetime,
		offset:     u * lifetime,
		antenna:    1,
		rssi:       -50,
		jitterSeed: seed,
	}
}

func newWard(cfg wardConfig) (*ward, error) {
	syn, err := sim.NewSynth(sim.SynthConfig{
		Users:       cfg.users,
		BaseRateBPM: cfg.baseBPM,
		RSSIdBm:     cfg.rssi,
		AntennaPort: cfg.antenna,
		JitterFrac:  0.5,
		Seed:        cfg.jitterSeed,
		FirstUserID: cfg.firstID,
	})
	if err != nil {
		return nil, fmt.Errorf("benchmark: ward: %w", err)
	}
	return &ward{cfg: cfg, syn: syn, dt: 1.0 / 8}, nil
}

// splitmix is a full-avalanche 64-bit mix used to spread seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stepAt returns the read step whose reports start at stream time t.
func (w *ward) stepAt(t float64) int { return int(t/w.dt + 1e-9) }

// perStep is the report count of one read step.
func (w *ward) perStep() int { return w.syn.ReportsPerStep() }

// truthBPM is the breathing rate of whoever occupies slot.
func (w *ward) truthBPM(slot int) float64 {
	return w.cfg.baseBPM + float64(slot%25)
}

// generation returns which occupant of slot is present at stream time t.
func (w *ward) generation(slot int, t float64) uint64 {
	if w.cfg.lifetime <= 0 {
		return 0
	}
	shift := w.slotShift(slot)
	return uint64((t + shift) / w.cfg.lifetime)
}

// slotShift staggers slots across one lifetime so churn is steady.
func (w *ward) slotShift(slot int) float64 {
	if w.cfg.lifetime <= 0 {
		return 0
	}
	s := w.cfg.offset + float64(slot)*w.cfg.lifetime/float64(w.cfg.users)
	for s >= w.cfg.lifetime {
		s -= w.cfg.lifetime
	}
	return s
}

// identity is the user ID of slot's occupant in generation gen.
func (w *ward) identity(slot int, gen uint64) uint64 {
	return w.cfg.firstID + gen*uint64(w.cfg.users) + uint64(slot)
}

// occupant maps a user ID back to its slot and generation; ok is false
// for an ID this ward never issues.
func (w *ward) occupant(uid uint64) (slot int, gen uint64, ok bool) {
	if uid < w.cfg.firstID {
		return 0, 0, false
	}
	off := uid - w.cfg.firstID
	return int(off % uint64(w.cfg.users)), off / uint64(w.cfg.users), true
}

// stay returns the stream-time interval [join, leave) during which
// generation gen occupies slot. The first generation joins at 0.
func (w *ward) stay(slot int, gen uint64) (join, leave float64) {
	if w.cfg.lifetime <= 0 {
		return 0, 1e18
	}
	shift := w.slotShift(slot)
	join = float64(gen)*w.cfg.lifetime - shift
	if join < 0 {
		join = 0
	}
	return join, float64(gen+1)*w.cfg.lifetime - shift
}

// step appends read step k — every slot's every tag, in timestamp
// order, stamped with the occupant present at that moment.
func (w *ward) step(k int, dst []reader.TagReport) []reader.TagReport {
	tags := w.perStep() / w.cfg.users
	for u := 0; u < w.cfg.users; u++ {
		for tag := 0; tag < tags; tag++ {
			r := w.syn.ReportAt(k, u, tag)
			if w.cfg.lifetime > 0 {
				gen := w.generation(u, r.Timestamp.Seconds())
				r.EPC = epc.NewUserTagEPC(w.identity(u, gen), uint32(tag)+1)
			}
			dst = append(dst, r)
		}
	}
	return dst
}
