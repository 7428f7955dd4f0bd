package core

import (
	"doppelganger/internal/faults"
	"doppelganger/internal/memdata"
)

// This file wires the fault-injection layer through the three LLC
// organizations: every structure carries an injector pointer
// unconditionally, and a nil injector is the zero-cost disabled path.

// AttachFaults wires inj into the baseline LLC: its set-associative array
// draws against the LLC tag/data targets on hits, and blocks fetched from
// the backing store draw against the DRAM target. A nil injector disables
// injection.
func (b *Baseline) AttachFaults(inj *faults.Injector) {
	b.inj = inj
	b.arr.AttachFaults(inj, faults.LLCTag, faults.LLCData)
}

// AttachFaults wires inj into the Doppelgänger cache: hits draw against the
// tag and data arrays, map generation draws against the map path, and
// memory fetches draw against DRAM. A nil injector disables injection.
func (d *Doppelganger) AttachFaults(inj *faults.Injector) {
	d.inj = inj
}

// AttachFaults wires inj into both halves of the split organization.
func (s *Split) AttachFaults(inj *faults.Injector) {
	s.Precise.AttachFaults(inj)
	s.Doppel.AttachFaults(inj)
}

// injectHit draws faults against the tag and data entries serving a
// Doppelgänger read hit. The data draw corrupts the representative payload
// in place (every tag sharing the entry sees the flipped bit — the
// structural amplification the decoupled design implies); it is skipped in
// compressed mode, where flipping stored compressed bytes would model a
// different (decode-path) failure. The tag draw flips a stored address-tag
// bit: the entry stops answering for its true address and may alias
// another, while its addr field — the simulator's writeback ground truth —
// stays intact, so the tag→data invariant is never broken.
func (d *Doppelganger) injectHit(t, de int32) {
	if !d.cfg.CompressedData {
		d.inj.CorruptBlock(faults.LLCData, &d.data[de].data)
	}
	te := &d.tags[t]
	width := 32 - memdata.OffsetBits - int(d.tagSetBits)
	te.tag = d.inj.CorruptBits(faults.LLCTag, te.tag, width)
}
