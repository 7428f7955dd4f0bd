// Package funcsim is the functional (timing-free) multicore cache
// hierarchy. It plays the role of the paper's Pin-based tool (§4): workload
// kernels execute for real against private L1/L2 caches and a pluggable LLC
// organization, so approximate loads observe the values the Doppelgänger
// cache actually returns and application output error can be measured on
// the final output.
//
// The hierarchy also records per-core traces for the timing simulator and
// takes periodic LLC content snapshots for the storage-savings analyses.
package funcsim

import (
	"math"

	"doppelganger/internal/approx"
	"doppelganger/internal/cache"
	"doppelganger/internal/coherence"
	"doppelganger/internal/core"
	"doppelganger/internal/faults"
	"doppelganger/internal/memdata"
	"doppelganger/internal/metrics"
	"doppelganger/internal/quality"
	"doppelganger/internal/trace"
)

// Config describes the private levels of the hierarchy; the shared LLC is
// passed in as a constructed organization.
type Config struct {
	Cores int
	L1    cache.Config // per core
	L2    cache.Config // per core
}

// Table1Config returns the private-cache configuration of the paper's
// Table 1: 16 KB 4-way L1 and 128 KB 8-way L2, per core.
func Table1Config(cores int) Config {
	return Config{
		Cores: cores,
		L1:    cache.Config{Name: "L1", SizeBytes: 16 << 10, Ways: 4},
		L2:    cache.Config{Name: "L2", SizeBytes: 128 << 10, Ways: 8},
	}
}

// Stats counts functional hierarchy events.
type Stats struct {
	Loads, Stores        uint64
	L1Hits, L1Misses     uint64
	L2Hits, L2Misses     uint64
	LLCReads, LLCHits    uint64
	BackInvals           uint64
	DirtyBackInvalWrites uint64
	RemoteWritebacks     uint64 // M copies flushed to LLC for another core
}

// Hierarchy is the functional model: per-core L1/L2 over one shared LLC,
// with an MSI directory maintained at the LLC level (§3.6).
type Hierarchy struct {
	cfg   Config
	l1    []*cache.Cache
	l2    []*cache.Cache
	llc   core.LLC
	dir   *coherence.Directory
	store *memdata.Store
	ann   *approx.Annotations
	rec   *trace.Recorder

	// MSI tracks directory state transitions and back-invalidations in plain
	// counters.
	MSI *coherence.Tracker

	// SnapshotEvery triggers SnapshotFn after that many LLC-level fills
	// (0 disables). Analyses sample resident LLC contents this way.
	SnapshotEvery  int
	SnapshotFn     func(llc core.LLC)
	fillsSinceSnap int

	Stats Stats

	// Totals accumulates the structure-level event counts of every LLC
	// operation performed during the run (its Evicted stays empty); the
	// energy model consumes it.
	Totals core.Effects

	// Last describes the most recent access for the timing model.
	Last Outcome

	// wbScratch stages a dirty L2 victim's payload for the LLC writeback.
	// Passing a stack copy's address through the core.LLC interface makes
	// escape analysis heap-allocate one Block per eviction; the reusable
	// field keeps the replay and live hot loops allocation-free. The LLC
	// never retains the pointer (the Effects contract), so reuse is safe.
	wbScratch memdata.Block
}

// Outcome classifies one access for the cycle-level timing model: which
// level serviced it and how much LLC-side work (evictions, memory traffic)
// it triggered.
type Outcome struct {
	Level        int // 1 = L1 hit, 2 = L2 hit, 3 = LLC hit, 4 = memory
	LLCAccesses  int // LLC operations performed (read + any writebacks)
	LLCEvictions int // LLC tags invalidated (back-invalidations)
	MemReads     int
	MemWrites    int
}

// New builds a hierarchy over the given LLC organization and backing store.
// rec may be nil to skip trace recording.
func New(cfg Config, llc core.LLC, store *memdata.Store, ann *approx.Annotations, rec *trace.Recorder) *Hierarchy {
	h := &Hierarchy{
		cfg:   cfg,
		l1:    make([]*cache.Cache, cfg.Cores),
		l2:    make([]*cache.Cache, cfg.Cores),
		llc:   llc,
		dir:   coherence.NewDirectory(),
		store: store,
		ann:   ann,
		rec:   rec,
		MSI:   coherence.NewTracker(),
	}
	for c := 0; c < cfg.Cores; c++ {
		h.l1[c] = cache.New(cfg.L1)
		h.l2[c] = cache.New(cfg.L2)
	}
	return h
}

// PublishMetrics adds everything the hierarchy counted to reg: its own
// Stats and LLC totals under "funcsim.*", every private cache array, the MSI
// tracker, and (when the organization counts events of its own) the LLC.
// Runs call it once, when they return. A nil registry is a no-op.
func (h *Hierarchy) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s := &h.Stats
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"funcsim.loads", s.Loads},
		{"funcsim.stores", s.Stores},
		{"funcsim.l1.hits", s.L1Hits},
		{"funcsim.l1.misses", s.L1Misses},
		{"funcsim.l2.hits", s.L2Hits},
		{"funcsim.l2.misses", s.L2Misses},
		{"funcsim.llc.reads", s.LLCReads},
		{"funcsim.llc.hits", s.LLCHits},
		{"funcsim.dirty_backinval_writes", s.DirtyBackInvalWrites},
		{"funcsim.remote_writebacks", s.RemoteWritebacks},
		{"funcsim.llc.mem_reads", uint64(h.Totals.MemReads)},
		{"funcsim.llc.mem_writes", uint64(h.Totals.MemWrites)},
		{"funcsim.llc.map_gens", uint64(h.Totals.MapGens)},
	} {
		reg.Counter(c.name).Add(c.v)
	}
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1[c].PublishMetrics(reg)
		h.l2[c].PublishMetrics(reg)
	}
	h.MSI.PublishMetrics(reg)
	if p, ok := h.llc.(interface{ PublishMetrics(*metrics.Registry) }); ok {
		p.PublishMetrics(reg)
	}
}

// AttachFaults wires a fault injector into the shared LLC organization.
// Private L1/L2 arrays are not fault targets — the paper's vulnerability
// argument is about the large LLC arrays and DRAM — so only the LLC (and,
// in the timing simulator, DRAM) draws. A nil injector is a no-op.
func (h *Hierarchy) AttachFaults(inj *faults.Injector) {
	if inj == nil {
		return
	}
	if a, ok := h.llc.(interface{ AttachFaults(*faults.Injector) }); ok {
		a.AttachFaults(inj)
	}
}

// AttachQuality wires the online quality guard into the shared LLC
// organization. Only the Doppelgänger variants consult it (the baseline LLC
// never approximates); a nil controller is a no-op.
func (h *Hierarchy) AttachQuality(qc *quality.Controller) {
	if qc == nil {
		return
	}
	if a, ok := h.llc.(interface{ AttachQuality(*quality.Controller) }); ok {
		a.AttachQuality(qc)
	}
}

// setDirState moves a directory entry to a new state, recording the MSI
// transition.
func (h *Hierarchy) setDirState(dl *coherence.Line, to coherence.State) {
	h.MSI.Transition(dl.State, to)
	dl.State = to
}

// LLC returns the LLC organization under simulation.
func (h *Hierarchy) LLC() core.LLC { return h.llc }

// Recorder returns the trace recorder (nil if disabled).
func (h *Hierarchy) Recorder() *trace.Recorder { return h.rec }

// dirLine returns (allocating) the directory entry for a block.
func (h *Hierarchy) dirLine(ba memdata.Addr) *coherence.Line {
	return h.dir.Entry(ba)
}

// access performs one memory operation for a core and returns a pointer to
// the L1-resident block so the caller can read or mutate the addressed
// bytes. This is the single entry point serialized by the gang scheduler.
func (h *Hierarchy) access(c int, addr memdata.Addr, write bool) *memdata.Block {
	if write {
		h.Stats.Stores++
	} else {
		h.Stats.Loads++
	}
	h.Last = Outcome{}
	ba := addr.BlockAddr()

	// L1.
	if l := h.l1[c].Lookup(ba); l != nil {
		h.Stats.L1Hits++
		h.Last.Level = 1
		if !write || l.Coh == coherence.Modified {
			if write {
				l.Dirty = true
			}
			return &l.Data
		}
		// Write upgrade (S -> M): invalidate other sharers via the directory.
		h.upgrade(c, ba)
		l.Coh = coherence.Modified
		l.Dirty = true
		if l2 := h.l2[c].Probe(ba); l2 != nil {
			l2.Coh = coherence.Modified
		}
		return &l.Data
	}
	h.Stats.L1Misses++

	// L2.
	if l2 := h.l2[c].Lookup(ba); l2 != nil {
		h.Stats.L2Hits++
		h.Last.Level = 2
		if write && l2.Coh != coherence.Modified {
			h.upgrade(c, ba)
			l2.Coh = coherence.Modified
		}
		st := l2.Coh
		if write {
			st = coherence.Modified
		}
		l1 := h.fillL1(c, ba, &l2.Data, st)
		if write {
			l1.Dirty = true
		}
		return &l1.Data
	}
	h.Stats.L2Misses++

	// LLC. First resolve coherence: a remote Modified copy is written back
	// to the LLC (using the §3.4 writeback procedure) before the data is
	// served.
	dl := h.dirLine(ba)
	if dl.State == coherence.Modified && int(dl.Owner) != c {
		h.flushRemote(int(dl.Owner), ba)
	}
	if write {
		// Invalidate all other sharers before granting M.
		h.invalidateSharers(ba, c)
	}

	h.Stats.LLCReads++
	data, eff := h.llc.Read(ba)
	if eff.Hit {
		h.Stats.LLCHits++
		h.Last.Level = 3
	} else {
		h.Last.Level = 4
	}
	h.absorb(eff)

	// The LLC-level eviction processing above may, in pathological cases,
	// have invalidated ba itself (a Doppelgänger data eviction triggered by
	// an unrelated writeback). The data we hold is still valid to consume.
	st := coherence.Shared
	if write {
		st = coherence.Modified
	}
	dl = h.dirLine(ba)
	dl.Sharers = dl.Sharers.Add(c)
	h.setDirState(dl, st)
	if write {
		dl.Owner = int8(c)
	}

	l2line := h.fillL2(c, ba, &data, st)
	l1 := h.fillL1(c, ba, &l2line.Data, st)
	if write {
		l1.Dirty = true
	}
	h.maybeSnapshot()
	return &l1.Data
}

// upgrade grants core c exclusive (M) permission for ba by invalidating
// every other private copy; dirty remote copies are first flushed to the
// LLC.
func (h *Hierarchy) upgrade(c int, ba memdata.Addr) {
	dl := h.dirLine(ba)
	if dl.State == coherence.Modified && int(dl.Owner) != c {
		h.flushRemote(int(dl.Owner), ba)
	}
	h.invalidateSharers(ba, c)
	h.setDirState(dl, coherence.Modified)
	dl.Owner = int8(c)
	dl.Sharers = dl.Sharers.Add(c)
}

// invalidateSharers drops every private copy of ba except core keep's.
func (h *Hierarchy) invalidateSharers(ba memdata.Addr, keep int) {
	dl := h.dirLine(ba)
	dl.Sharers.ForEach(h.cfg.Cores, func(other int) {
		if other == keep {
			return
		}
		h.dropPrivate(other, ba, true)
		dl.Sharers = dl.Sharers.Remove(other)
	})
}

// flushRemote writes core owner's modified copy of ba back to the LLC
// (remote copy downgraded to Shared), per §3.6.
func (h *Hierarchy) flushRemote(owner int, ba memdata.Addr) {
	// Downgrade BOTH private levels unconditionally: a clean copy can still
	// hold stale M permission (e.g. an L1 line refilled from a dirty L2 in
	// M state), and leaving it would let the owner write later without a
	// directory upgrade.
	var data *memdata.Block
	l1 := h.l1[owner].Probe(ba)
	l2 := h.l2[owner].Probe(ba)
	if l1 != nil && l1.Dirty {
		data = &l1.Data
		if l2 != nil {
			l2.Data = l1.Data
		}
	} else if l2 != nil && l2.Dirty {
		data = &l2.Data
	}
	if l1 != nil {
		l1.Dirty = false
		l1.Coh = coherence.Shared
	}
	if l2 != nil {
		l2.Dirty = false
		l2.Coh = coherence.Shared
	}
	dl := h.dirLine(ba)
	h.setDirState(dl, coherence.Shared)
	dl.Owner = -1
	if data == nil {
		return // copy already clean or evicted; nothing to flush
	}
	h.Stats.RemoteWritebacks++
	eff := h.llc.WriteBack(ba, data)
	h.absorb(eff)
}

// dropPrivate invalidates ba from core c's L1 and L2. If flushDirty is set
// and a dirty copy exists while the LLC still holds a tag, the data is
// written back to the LLC; if the LLC tag is already gone (back-
// invalidation) dirty data goes straight to memory.
func (h *Hierarchy) dropPrivate(c int, ba memdata.Addr, flushDirty bool) {
	var dirtyData *memdata.Block
	if old, ok := h.l1[c].Invalidate(ba); ok && old.Dirty {
		d := old.Data
		dirtyData = &d
	}
	if old, ok := h.l2[c].Invalidate(ba); ok && old.Dirty && dirtyData == nil {
		d := old.Data
		dirtyData = &d
	}
	if dirtyData == nil || !flushDirty {
		return
	}
	if h.llc.Contains(ba) {
		eff := h.llc.WriteBack(ba, dirtyData)
		h.absorb(eff)
	} else {
		h.store.WriteBlock(ba, dirtyData)
		h.Stats.DirtyBackInvalWrites++
	}
}

// absorb records an LLC operation's effects into the run totals and the
// per-access outcome, then propagates its evictions.
func (h *Hierarchy) absorb(eff *core.Effects) {
	h.Totals.Add(eff)
	h.Last.LLCAccesses++
	h.Last.LLCEvictions += len(eff.Evicted)
	h.Last.MemReads += eff.MemReads
	h.Last.MemWrites += eff.MemWrites
	h.applyEffects(eff)
}

// applyEffects propagates LLC-level evictions: the LLC is inclusive, so
// every evicted tag back-invalidates the private caches; dirty private
// copies go straight to memory since the LLC tag is gone (§3.5).
func (h *Hierarchy) applyEffects(eff *core.Effects) {
	for _, ev := range eff.Evicted {
		h.Stats.BackInvals++
		h.MSI.BackInvalidation()
		for c := 0; c < h.cfg.Cores; c++ {
			var dirtyData *memdata.Block
			if old, ok := h.l1[c].Invalidate(ev.Addr); ok && old.Dirty {
				d := old.Data
				dirtyData = &d
			}
			if old, ok := h.l2[c].Invalidate(ev.Addr); ok && old.Dirty && dirtyData == nil {
				d := old.Data
				dirtyData = &d
			}
			if dirtyData != nil {
				h.store.WriteBlock(ev.Addr, dirtyData)
				h.Stats.DirtyBackInvalWrites++
				h.Totals.MemWrites++
				h.Last.MemWrites++
			}
		}
		if dl, ok := h.dir.Remove(ev.Addr); ok {
			h.MSI.Transition(dl.State, coherence.Invalid)
		}
	}
}

// fillL1 installs data into core c's L1, handling the dirty victim (which
// is guaranteed to also be in L2 by inclusion).
func (h *Hierarchy) fillL1(c int, ba memdata.Addr, data *memdata.Block, st coherence.State) *cache.Line {
	v := h.l1[c].Victim(ba)
	if v.Valid && v.Dirty {
		if l2 := h.l2[c].Probe(v.Addr); l2 != nil {
			l2.Data = v.Data
			l2.Dirty = true
		} else {
			// Inclusion corner: L2 already lost it; push to LLC. The LLC
			// evictions that writeback causes may back-invalidate the
			// source line, so fill from a copy.
			d := *data
			data = &d
			h.writebackToLLC(v.Addr, &v.Data)
		}
	}
	l := h.l1[c].Install(v, ba, data)
	l.Coh = st
	return l
}

// fillL2 installs data into core c's L2, evicting (and writing back) the
// victim and enforcing L1 ⊆ L2.
func (h *Hierarchy) fillL2(c int, ba memdata.Addr, data *memdata.Block, st coherence.State) *cache.Line {
	v := h.l2[c].Victim(ba)
	if v.Valid {
		victimAddr := v.Addr
		h.wbScratch = v.Data
		victimDirty := v.Dirty
		// Enforce inclusion: drop the L1 copy, merging its dirty data.
		if l1old, ok := h.l1[c].Invalidate(victimAddr); ok && l1old.Dirty {
			h.wbScratch = l1old.Data
			victimDirty = true
		}
		if dl := h.dir.Lookup(victimAddr); dl != nil {
			dl.Sharers = dl.Sharers.Remove(c)
			if dl.State == coherence.Modified && int(dl.Owner) == c {
				h.setDirState(dl, coherence.Shared)
				dl.Owner = -1
			}
		}
		if victimDirty {
			h.writebackToLLC(victimAddr, &h.wbScratch)
		}
	}
	l := h.l2[c].Install(v, ba, data)
	l.Coh = st
	return l
}

func (h *Hierarchy) writebackToLLC(ba memdata.Addr, data *memdata.Block) {
	eff := h.llc.WriteBack(ba, data)
	h.absorb(eff)
}

func (h *Hierarchy) maybeSnapshot() {
	if h.SnapshotEvery <= 0 || h.SnapshotFn == nil {
		return
	}
	h.fillsSinceSnap++
	if h.fillsSinceSnap >= h.SnapshotEvery {
		h.fillsSinceSnap = 0
		h.SnapshotFn(h.llc)
	}
}

// Flush drains all private caches into the LLC (used at workload end so
// final outputs are visible in the backing store) and then flushes LLC
// dirty state to memory via eviction.
func (h *Hierarchy) Flush() {
	for c := 0; c < h.cfg.Cores; c++ {
		for _, l := range h.l1[c].Flush() {
			if l2 := h.l2[c].Probe(l.Addr); l2 != nil {
				l2.Data = l.Data
				l2.Dirty = true
			} else {
				h.writebackToLLC(l.Addr, &l.Data)
			}
		}
		for _, l := range h.l2[c].Flush() {
			h.writebackToLLC(l.Addr, &l.Data)
		}
	}
	// Evict every remaining LLC block so dirty data reaches memory.
	for _, sb := range h.llc.Snapshot() {
		eff := h.llc.EvictFor(sb.Addr)
		h.absorb(eff)
	}
	h.dir.Reset()
}

// --- inspection views (used by the coherence property tests) ---

// Cores returns the configured core count.
func (h *Hierarchy) Cores() int { return h.cfg.Cores }

// DirView reports the directory entry for block ba without allocating one:
// its state, owner core (-1 if none), the sharer cores, and whether an entry
// exists at all.
func (h *Hierarchy) DirView(ba memdata.Addr) (st coherence.State, owner int, sharers []int, ok bool) {
	dl := h.dir.Lookup(ba.BlockAddr())
	if dl == nil {
		return coherence.Invalid, -1, nil, false
	}
	dl.Sharers.ForEach(h.cfg.Cores, func(c int) { sharers = append(sharers, c) })
	return dl.State, int(dl.Owner), sharers, true
}

// PrivateLine is core-local cache state for one block, per level.
type PrivateLine struct {
	InL1, InL2       bool
	L1State, L2State coherence.State
	L1Dirty, L2Dirty bool
}

// Holds reports whether the block is present in either private level.
func (p PrivateLine) Holds() bool { return p.InL1 || p.InL2 }

// Modified reports whether either private level holds the block in M.
func (p PrivateLine) Modified() bool {
	return (p.InL1 && p.L1State == coherence.Modified) ||
		(p.InL2 && p.L2State == coherence.Modified)
}

// PrivateView reports core c's private-cache state for block ba. It uses
// Probe, so it never perturbs LRU order or stats.
func (h *Hierarchy) PrivateView(c int, ba memdata.Addr) PrivateLine {
	ba = ba.BlockAddr()
	var pv PrivateLine
	if l := h.l1[c].Probe(ba); l != nil {
		pv.InL1, pv.L1State, pv.L1Dirty = true, l.Coh, l.Dirty
	}
	if l := h.l2[c].Probe(ba); l != nil {
		pv.InL2, pv.L2State, pv.L2Dirty = true, l.Coh, l.Dirty
	}
	return pv
}

// --- typed access API (used by CoreCtx) ---

func (h *Hierarchy) loadBytes(c int, addr memdata.Addr, size int) uint64 {
	b := h.access(c, addr, false)
	off := addr.Offset()
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(b[off+i]) << uint(8*i)
	}
	h.record(c, addr, false, size, 0)
	return v
}

func (h *Hierarchy) storeBytes(c int, addr memdata.Addr, size int, v uint64) {
	b := h.access(c, addr, true)
	off := addr.Offset()
	for i := 0; i < size; i++ {
		b[off+i] = byte(v >> uint(8*i))
	}
	h.record(c, addr, true, size, v)
}

func (h *Hierarchy) record(c int, addr memdata.Addr, write bool, size int, v uint64) {
	if h.rec != nil {
		h.rec.Access(c, addr, write, size, v, h.ann.Approximate(addr))
	}
}

// Replay performs one traced memory operation for core c: loads go through
// the hierarchy without assembling a value (nothing reads it), stores apply
// the recorded payload. The timing simulator replays recorded traces this
// way, keeping the functional state (and thus Doppelgänger map
// computations) live.
func (h *Hierarchy) Replay(c int, r trace.Record) {
	if r.Write {
		h.storeBytes(c, r.Addr, int(r.Size), r.Val)
	} else {
		h.access(c, r.Addr, false)
		h.record(c, r.Addr, false, int(r.Size), 0)
	}
}

// LoadF32 reads a float32 through core c's hierarchy.
func (h *Hierarchy) LoadF32(c int, addr memdata.Addr) float32 {
	return math.Float32frombits(uint32(h.loadBytes(c, addr, 4)))
}

// StoreF32 writes a float32 through core c's hierarchy.
func (h *Hierarchy) StoreF32(c int, addr memdata.Addr, v float32) {
	h.storeBytes(c, addr, 4, uint64(math.Float32bits(v)))
}

// LoadF64 reads a float64.
func (h *Hierarchy) LoadF64(c int, addr memdata.Addr) float64 {
	return math.Float64frombits(h.loadBytes(c, addr, 8))
}

// StoreF64 writes a float64.
func (h *Hierarchy) StoreF64(c int, addr memdata.Addr, v float64) {
	h.storeBytes(c, addr, 8, math.Float64bits(v))
}

// LoadI32 reads an int32.
func (h *Hierarchy) LoadI32(c int, addr memdata.Addr) int32 {
	return int32(uint32(h.loadBytes(c, addr, 4)))
}

// StoreI32 writes an int32.
func (h *Hierarchy) StoreI32(c int, addr memdata.Addr, v int32) {
	h.storeBytes(c, addr, 4, uint64(uint32(v)))
}

// LoadU8 reads a byte.
func (h *Hierarchy) LoadU8(c int, addr memdata.Addr) uint8 {
	return uint8(h.loadBytes(c, addr, 1))
}

// StoreU8 writes a byte.
func (h *Hierarchy) StoreU8(c int, addr memdata.Addr, v uint8) {
	h.storeBytes(c, addr, 1, uint64(v))
}
