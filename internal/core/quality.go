package core

import (
	"doppelganger/internal/memdata"
	"doppelganger/internal/quality"
)

// This file wires the online quality guard through the approximate LLC
// organizations, mirroring the AttachFaults plumbing in faults.go: the
// Doppelgänger cache carries a controller pointer unconditionally, and a nil
// controller is the zero-cost disabled path.
//
// The guard touches the cache at two kinds of points:
//
//   - Substitution sites (insert reuse-link, silent write, remap onto an
//     existing entry) and clean read hits sample canaries: the precise
//     payload and the representative that replaces it are both in hand, so
//     the comparison costs no extra memory traffic beyond what the sampled
//     fraction pays by design.
//   - Approximation decisions (insert map generation, writeback map
//     regeneration) consult the breaker: while it is open, blocks are cached
//     precisely under address-derived keys — the same mechanism
//     uniDoppelgänger uses for precise data — so the hierarchy degrades to
//     conventional LLC behaviour without invalidating anything already
//     resident.

// AttachQuality wires the quality controller into the Doppelgänger cache.
// A nil controller disables the guard.
func (d *Doppelganger) AttachQuality(qc *quality.Controller) {
	d.qc = qc
}

// AttachQuality wires the controller into the split organization's
// Doppelgänger half (the precise half never approximates).
func (s *Split) AttachQuality(qc *quality.Controller) {
	s.Doppel.AttachQuality(qc)
}

// migratePrecise converts tag t from an approximate mapping into a precise
// entry holding payload, the writeback half of graceful degradation: the tag
// leaves its shared data entry (freeing it if it was the sole member) and
// gets a private entry under its address-derived key, exactly as a precise
// uniDoppelgänger block would.
func (d *Doppelganger) migratePrecise(t int32, payload *memdata.Block, eff *Effects) {
	d.Stats.QualityBypasses++
	te := &d.tags[t]
	d.unlink(t)
	eff.MTagWrites++
	key := uint32(te.addr.BlockAddr()) >> memdata.OffsetBits
	de := d.probeData(key, true)
	eff.MTagReads++
	if de >= 0 {
		// A stale precise entry for this address must not survive alongside
		// the migrated tag.
		d.freeData(de, eff)
	}
	de = d.allocData(key, true, payload, eff)
	te.precise = true
	te.mapv = key
	te.dirty = true
	d.linkHead(de, t)
	d.data[de].lru = d.tick
}
