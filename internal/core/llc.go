// Package core implements the paper's primary contribution: the
// Doppelgänger cache (§3) — a last-level cache with decoupled tag and
// approximate data arrays in which the tags of approximately similar blocks
// (blocks hashing to the same map value) share a single data array entry —
// and its unified variant uniDoppelgänger (§3.8). The package also provides
// the conventional baseline LLC and the split precise+Doppelgänger LLC
// organization used in the evaluation, all behind one LLC interface so the
// functional and timing simulators can drive any organization.
package core

import (
	"doppelganger/internal/approx"
	"doppelganger/internal/memdata"
)

// Eviction describes one block whose LLC tag was invalidated. Because the
// LLC is inclusive, the hierarchy must back-invalidate any private-cache
// copies of the address (§3.5).
type Eviction struct {
	Addr  memdata.Addr
	Dirty bool // a writeback to memory was generated for this tag
}

// Effects reports everything an LLC operation did besides returning data:
// evictions the hierarchy must propagate, and per-structure event counts the
// timing simulator turns into cycles and the energy model into picojoules.
type Effects struct {
	Hit bool

	// Evicted lists LLC tags invalidated by this operation (capacity
	// victims, and the whole tag list when a Doppelgänger data block is
	// replaced).
	Evicted []Eviction

	// Structure access counts. "P" prefixes the precise/baseline side,
	// "D" the Doppelgänger tag array, "MTag"/"DData" the approximate data
	// array halves.
	PTagReads, PTagWrites   int
	PDataReads, PDataWrites int
	DTagReads, DTagWrites   int
	MTagReads, MTagWrites   int
	DDataReads, DDataWrites int

	// MapGens counts map generations (average+range hash plus mapping,
	// charged at 168 pJ each per §5.6).
	MapGens int

	// Off-chip traffic.
	MemReads, MemWrites int
}

// reset clears e for reuse as an organization's scratch effects, keeping the
// Evicted backing array so steady-state operations allocate nothing.
func (e *Effects) reset() {
	ev := e.Evicted[:0]
	*e = Effects{Evicted: ev}
}

// Add accumulates o's event counts into e. It leaves e.Evicted alone: the
// hierarchy propagates each operation's evictions as they happen, and run
// totals (its only use) would otherwise keep one entry per LLC eviction for
// the whole run.
func (e *Effects) Add(o *Effects) {
	e.PTagReads += o.PTagReads
	e.PTagWrites += o.PTagWrites
	e.PDataReads += o.PDataReads
	e.PDataWrites += o.PDataWrites
	e.DTagReads += o.DTagReads
	e.DTagWrites += o.DTagWrites
	e.MTagReads += o.MTagReads
	e.MTagWrites += o.MTagWrites
	e.DDataReads += o.DDataReads
	e.DDataWrites += o.DDataWrites
	e.MapGens += o.MapGens
	e.MemReads += o.MemReads
	e.MemWrites += o.MemWrites
}

// SnapshotBlock is one resident LLC block as seen by the storage-savings
// analyzers (§2, §5.1): its address, current payload, and the annotation
// region it belongs to (nil for precise blocks).
type SnapshotBlock struct {
	Addr   memdata.Addr
	Data   memdata.Block
	Region *approx.Region
}

// LLC is the last-level cache seen by the hierarchy: the baseline 2 MB
// cache, the split precise+Doppelgänger organization, or uniDoppelgänger.
//
// All organizations fetch from and write back to the backing store they
// were constructed with. Reads return the block payload forwarded to L2 —
// on a Doppelgänger hit this is the representative (approximate) data.
//
// The *Effects returned by Read, WriteBack, and EvictFor is owned by the
// organization and valid only until the next operation on it: callers must
// consume (or copy, e.g. via Add) the effects before issuing another
// operation. The hierarchy's absorb path honors this.
type LLC interface {
	// Read services an L2 read miss for addr's block.
	Read(addr memdata.Addr) (memdata.Block, *Effects)

	// WriteBack accepts a dirty block evicted from (or written back by) a
	// private L2.
	WriteBack(addr memdata.Addr, data *memdata.Block) *Effects

	// EvictFor invalidates addr's block from the LLC if present (used by
	// tests and by flush paths); evictions are reported like any other.
	EvictFor(addr memdata.Addr) *Effects

	// Contains reports whether addr's block currently has a valid LLC tag
	// (the inclusivity invariant checked by the hierarchy).
	Contains(addr memdata.Addr) bool

	// Snapshot returns all resident blocks for the §5.1 analyses. For
	// Doppelgänger organizations each tag contributes one block whose
	// payload is its representative data entry.
	Snapshot() []SnapshotBlock

	// TagEntries and DataBlocks describe occupancy: total valid tags and
	// valid data entries (equal for conventional caches).
	TagEntries() int
	DataBlocks() int
}
