package core

import (
	"fmt"
	"math/bits"

	"doppelganger/internal/approx"
	"doppelganger/internal/bdi"
	"doppelganger/internal/faults"
	"doppelganger/internal/memdata"
	"doppelganger/internal/quality"
)

// DataReplacement selects the approximate data array's replacement policy.
// The paper uses LRU in both arrays and explicitly leaves tag-count-aware
// policies as future work (§3.5); TagCountAware implements that extension:
// it preferentially evicts entries serving the fewest tags (tie-broken by
// LRU), since evicting a heavily shared entry invalidates its whole tag
// list and triggers a burst of back-invalidations.
type DataReplacement uint8

// The implemented data-array replacement policies.
const (
	ReplaceLRU DataReplacement = iota
	ReplaceTagCountAware
)

// String names the policy.
func (p DataReplacement) String() string {
	switch p {
	case ReplaceLRU:
		return "lru"
	case ReplaceTagCountAware:
		return "tag-count-aware"
	}
	return fmt.Sprintf("DataReplacement(%d)", uint8(p))
}

// Config describes a Doppelgänger cache instance (§3.1, Table 1). The tag
// array has TagEntries entries of TagWays associativity; the decoupled
// approximate data array has DataEntries block frames of DataWays
// associativity, indexed by map values rather than addresses. Unified
// selects the uniDoppelgänger variant (§3.8) in which precise blocks share
// the same arrays, using their physical block address as the map.
type Config struct {
	Name        string
	TagEntries  int
	TagWays     int
	DataEntries int
	DataWays    int
	MapSpec     approx.MapSpec
	Unified     bool
	// DataPolicy selects the data array replacement policy; the zero value
	// is the paper's LRU.
	DataPolicy DataReplacement
	// CompressedData stores BΔI-compressed payloads in the data array (the
	// paper's §5.1 Doppelgänger+BΔI combination); each data set then has a
	// byte budget of CompressBudget × DataWays × 64.
	CompressedData bool
	// CompressBudget is that budget as a fraction of the uncompressed set
	// capacity (0 means 0.5).
	CompressBudget float64
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.TagEntries <= 0 || c.TagWays <= 0 || c.DataEntries <= 0 || c.DataWays <= 0 {
		return fmt.Errorf("core: %q has non-positive geometry", c.Name)
	}
	if c.TagEntries%c.TagWays != 0 || c.DataEntries%c.DataWays != 0 {
		return fmt.Errorf("core: %q entries not divisible by ways", c.Name)
	}
	// Tag sets must be a power of two (address-indexed); the map-indexed
	// data array may have any set count (e.g. the 3/4-capacity
	// uniDoppelgänger configuration) since maps index by modulo.
	if ts := c.TagEntries / c.TagWays; ts&(ts-1) != 0 {
		return fmt.Errorf("core: %q tag set count %d must be a power of two", c.Name, ts)
	}
	if c.MapSpec.M <= 0 || c.MapSpec.M > 32 {
		return fmt.Errorf("core: %q map space M=%d out of range", c.Name, c.MapSpec.M)
	}
	if c.CompressedData {
		frac := c.CompressBudget
		if frac == 0 {
			frac = 0.5
		}
		if frac <= 0 || frac > 1 {
			return fmt.Errorf("core: %q compress budget %v out of (0,1]", c.Name, c.CompressBudget)
		}
		if int(frac*float64(c.DataWays*memdata.BlockSize)) < memdata.BlockSize {
			return fmt.Errorf("core: %q compressed set budget below one block", c.Name)
		}
	}
	return nil
}

// Stats counts Doppelgänger events; the paper's §3.5/§5 discussion quotes
// several of these (average tags per evicted data entry, fraction of dirty
// evictions).
type Stats struct {
	Reads    uint64
	ReadHits uint64

	WriteBacks      uint64 // writebacks arriving from L2
	SilentWrites    uint64 // map unchanged: dirty bit only (§3.4)
	Remaps          uint64 // map changed onto an existing data entry
	WriteAllocs     uint64 // map changed, new data entry allocated
	WritebackMisses uint64 // writeback found no tag (inclusivity corner)

	Inserts       uint64 // blocks inserted after a miss
	ReuseLinks    uint64 // insert found a similar block and linked to it
	NewDataBlocks uint64 // insert allocated a fresh data entry

	TagEvictions       uint64
	DirtyTagEvictions  uint64
	DataEvictions      uint64 // capacity evictions of data entries
	TagsAtDataEviction uint64 // sum of tag-list lengths when data evicted
	MapGens            uint64

	// QualityBypasses counts approximate operations served precisely because
	// the quality guard's breaker was open (graceful degradation).
	QualityBypasses uint64

	// Compression accounting (CompressedData mode).
	CompressedBytes   uint64
	UncompressedBytes uint64
}

const nilTag = int32(-1)

// tagEntry is one entry of the decoupled tag array (Fig. 4): address tag,
// line state, prev/next tag pointers forming the doubly-linked list of tags
// sharing a data entry, and the map value indexing the data array.
type tagEntry struct {
	valid   bool
	dirty   bool
	precise bool // uniDoppelgänger only
	tag     uint32
	addr    memdata.Addr
	mapv    uint32 // map value (approx) — precise tags use addr-derived keys
	region  *approx.Region
	prev    int32
	next    int32
	lru     uint64
}

// dataEntry is one entry of the approximate data array plus its MTag-array
// metadata (Fig. 4): the map tag (kept here as the full key), a pointer to
// the head of the tag list, and the data block itself.
type dataEntry struct {
	valid   bool
	precise bool
	key     uint32 // full map value, or block number for precise entries
	head    int32
	count   int32 // tags currently linked (simulation bookkeeping)
	data    memdata.Block
	lru     uint64

	// Compressed-mode storage (CompressedData): the payload lives here
	// instead of data.
	comp   []byte
	scheme bdi.Scheme
}

// Doppelganger is the functional model of the Doppelgänger cache. It
// fetches from and writes back to the backing store it is constructed with.
type Doppelganger struct {
	cfg        Config
	tagSetBits uint
	tags       []tagEntry
	data       []dataEntry
	setUsage   []int // per-set byte usage (CompressedData mode)
	store      *memdata.Store
	ann        *approx.Annotations
	tick       uint64
	Stats      Stats
	tagsOcc    level // valid tag entries, for the occupancy gauges
	dataOcc    level // valid data entries
	inj        *faults.Injector
	qc         *quality.Controller
	eff        Effects // scratch, returned by operations (valid until the next op)
}

// New builds a Doppelgänger cache. ann must cover every approximate address
// the cache will see; for the non-unified variant every access must be to an
// annotated address (the split organization guarantees this by routing).
func New(cfg Config, store *memdata.Store, ann *approx.Annotations) (*Doppelganger, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CompressedData && cfg.CompressBudget == 0 {
		cfg.CompressBudget = 0.5
	}
	d := &Doppelganger{
		cfg:        cfg,
		tagSetBits: uint(bits.TrailingZeros32(uint32(cfg.TagEntries / cfg.TagWays))),
		tags:       make([]tagEntry, cfg.TagEntries),
		data:       make([]dataEntry, cfg.DataEntries),
		store:      store,
		ann:        ann,
	}
	if cfg.CompressedData {
		d.setUsage = make([]int, cfg.DataEntries/cfg.DataWays)
	}
	return d, nil
}

// MustNew is New but panics on error (static configurations).
func MustNew(cfg Config, store *memdata.Store, ann *approx.Annotations) *Doppelganger {
	d, err := New(cfg, store, ann)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the cache geometry.
func (d *Doppelganger) Config() Config { return d.cfg }

func (d *Doppelganger) touch() uint64 {
	d.tick++
	return d.tick
}

// --- tag array geometry ---

func (d *Doppelganger) tagSetOf(addr memdata.Addr) uint32 {
	return (uint32(addr) >> memdata.OffsetBits) & (uint32(len(d.tags)/d.cfg.TagWays) - 1)
}

func (d *Doppelganger) tagTagOf(addr memdata.Addr) uint32 {
	return uint32(addr) >> (memdata.OffsetBits + d.tagSetBits)
}

// probeTag returns the tag entry index holding addr, or nilTag.
func (d *Doppelganger) probeTag(addr memdata.Addr) int32 {
	base := int(d.tagSetOf(addr)) * d.cfg.TagWays
	tag := d.tagTagOf(addr)
	for w := 0; w < d.cfg.TagWays; w++ {
		t := &d.tags[base+w]
		if t.valid && t.tag == tag {
			return int32(base + w)
		}
	}
	return nilTag
}

// victimTag selects a fill victim in addr's tag set: invalid first, else LRU.
func (d *Doppelganger) victimTag(addr memdata.Addr) int32 {
	base := int(d.tagSetOf(addr)) * d.cfg.TagWays
	victim := int32(base)
	for w := 0; w < d.cfg.TagWays; w++ {
		t := &d.tags[base+w]
		if !t.valid {
			return int32(base + w)
		}
		if t.lru < d.tags[victim].lru {
			victim = int32(base + w)
		}
	}
	return victim
}

// --- data array geometry ---

// dataSetOf spreads a map key over the data array's sets. The paper indexes
// by the low map bits directly (§3.2); because real map values concentrate
// (e.g. pixel averages cluster around an image's dominant intensities, the
// §3.7 set-conflict discussion), we XOR-fold the upper key bits into the
// index — standard set-index hashing that only changes placement, never
// which keys match.
func (d *Doppelganger) dataSetOf(key uint32) uint32 {
	sets := uint32(len(d.data) / d.cfg.DataWays)
	folded := key
	for _, shift := range []uint{7, 13, 21} {
		folded ^= key >> shift
	}
	if sets&(sets-1) == 0 {
		return folded & (sets - 1)
	}
	return folded % sets
}

// probeData returns the data entry index for (key, precise), or -1. The low
// bits of the key index the MTag array and the rest is compared against the
// map tags of all ways in parallel (§3.2, step 2).
func (d *Doppelganger) probeData(key uint32, precise bool) int32 {
	base := int(d.dataSetOf(key)) * d.cfg.DataWays
	for w := 0; w < d.cfg.DataWays; w++ {
		e := &d.data[base+w]
		if e.valid && e.precise == precise && e.key == key {
			return int32(base + w)
		}
	}
	return -1
}

// victimData selects a fill victim in key's data set: invalid first, then
// per the configured policy — plain LRU (the paper's choice), or the
// tag-count-aware extension that spares heavily shared entries.
func (d *Doppelganger) victimData(key uint32) int32 {
	base := int(d.dataSetOf(key)) * d.cfg.DataWays
	victim := int32(base)
	for w := 0; w < d.cfg.DataWays; w++ {
		e := &d.data[base+w]
		if !e.valid {
			return int32(base + w)
		}
		v := &d.data[victim]
		switch d.cfg.DataPolicy {
		case ReplaceTagCountAware:
			if e.count < v.count || (e.count == v.count && e.lru < v.lru) {
				victim = int32(base + w)
			}
		default:
			if e.lru < v.lru {
				victim = int32(base + w)
			}
		}
	}
	return victim
}

// dataOf returns the data entry index a valid tag points to. The invariant
// that every valid tag has a backing data entry makes this a guaranteed hit
// ("One of the tags is guaranteed to match", §3.2).
func (d *Doppelganger) dataOf(t int32) int32 {
	te := &d.tags[t]
	de := d.probeData(te.mapv, te.precise)
	if de < 0 {
		panic(fmt.Sprintf("core: tag %d (%v) has no data entry for key %#x", t, te.addr, te.mapv))
	}
	return de
}

// --- linked-list maintenance (Fig. 5) ---

// linkHead inserts tag t at the head of data entry de's tag list.
func (d *Doppelganger) linkHead(de, t int32) {
	e := &d.data[de]
	te := &d.tags[t]
	te.prev = nilTag
	te.next = e.head
	if e.head != nilTag {
		d.tags[e.head].prev = t
	}
	e.head = t
	e.count++
}

// unlink removes tag t from its data entry's list. If t was the sole member
// the data entry is freed and true is returned (§3.5: "If a tag is evicted,
// the data is also evicted if there is only one tag associated").
func (d *Doppelganger) unlink(t int32) (freedData bool) {
	de := d.dataOf(t)
	e := &d.data[de]
	te := &d.tags[t]
	if te.prev == nilTag && te.next == nilTag {
		// Sole member: release the data entry.
		d.clearPayload(de)
		e.valid = false
		e.head = nilTag
		e.count = 0
		d.dataOcc.dec()
		return true
	}
	if te.prev != nilTag {
		d.tags[te.prev].next = te.next
	} else {
		e.head = te.next
	}
	if te.next != nilTag {
		d.tags[te.next].prev = te.prev
	}
	te.prev, te.next = nilTag, nilTag
	e.count--
	return false
}

// --- operations ---

// Read implements the lookup flow of §3.2 plus the insertion flow of §3.3
// on a miss. The returned payload is what gets forwarded to L2: the
// representative data on a hit, the freshly fetched memory data on a miss
// (the paper forwards memory data to L2 immediately; map generation and
// linking happen off the critical path).
func (d *Doppelganger) Read(addr memdata.Addr) (memdata.Block, *Effects) {
	d.Stats.Reads++
	eff := &d.eff
	eff.reset()
	eff.DTagReads = 1
	if t := d.probeTag(addr); t != nilTag {
		d.Stats.ReadHits++
		eff.Hit = true
		de := d.dataOf(t)
		eff.MTagReads, eff.DDataReads = 1, 1
		d.tags[t].lru = d.touch()
		d.data[de].lru = d.tick
		if d.inj != nil {
			d.injectHit(t, de)
		}
		if te := &d.tags[t]; !te.precise && !te.dirty && d.qc.Sample() {
			// Load canary: the representative being served is compared
			// against the precise store copy. Dirty tags are skipped — their
			// store copy predates the writeback, so the comparison would
			// measure staleness, not approximation. The payload copy stays
			// inside this branch so the guard-off hit path keeps zero allocs.
			payload := d.payloadOf(de)
			d.qc.Observe(te.region, &payload, d.store.Block(addr))
			return payload, eff
		}
		return d.payloadOf(de), eff
	}
	data := *d.store.Block(addr)
	if d.inj != nil {
		d.inj.CorruptBlock(faults.DRAM, &data)
	}
	eff.MemReads = 1
	d.insert(addr, &data, false, eff)
	return data, eff
}

// insert allocates a tag for addr and links it to a data entry holding
// (approximately) its payload, per §3.3.
func (d *Doppelganger) insert(addr memdata.Addr, payload *memdata.Block, dirty bool, eff *Effects) {
	d.Stats.Inserts++
	region := d.ann.Lookup(addr)
	if region == nil && !d.cfg.Unified {
		panic(fmt.Sprintf("core: precise address %v routed to non-unified Doppelgänger", addr))
	}

	// Allocate the tag entry first so a victim eviction cannot race with the
	// data entry we are about to link.
	t := d.victimTag(addr)
	if d.tags[t].valid {
		d.evictTag(t, eff)
	}
	eff.DTagWrites++

	var key uint32
	precise := region == nil
	if !precise && !d.qc.Allow() {
		// The quality breaker is open: degrade gracefully by caching the
		// block precisely under its address-derived key, bypassing map
		// generation (and therefore all approximate sharing) entirely.
		precise = true
		d.Stats.QualityBypasses++
	}
	if precise {
		key = uint32(addr.BlockAddr()) >> memdata.OffsetBits
	} else {
		key = d.cfg.MapSpec.MapValue(payload, region)
		if d.inj != nil {
			key = d.inj.CorruptBits(faults.MapGen, key, d.cfg.MapSpec.M)
		}
		d.Stats.MapGens++
		eff.MapGens++
	}

	de := d.probeData(key, precise)
	eff.MTagReads++
	if de >= 0 && !precise {
		// A similar block already resides in the data array: reuse it and
		// discard the incoming payload (§3.3 "Similar Data Block Exists").
		d.Stats.ReuseLinks++
		eff.MTagWrites++ // head-pointer update
		if d.qc.Sample() {
			// Substitution canary: the resident representative replaces the
			// incoming payload, and both are in hand right here.
			rep := d.payloadOf(de)
			d.qc.Observe(region, &rep, payload)
		}
	} else {
		if de >= 0 {
			// A precise data entry for this address should never survive its
			// tag; treat as stale and replace.
			d.freeData(de, eff)
		}
		de = d.allocData(key, precise, payload, eff)
		d.Stats.NewDataBlocks++
	}

	d.tags[t] = tagEntry{
		valid:   true,
		dirty:   dirty,
		precise: precise,
		tag:     d.tagTagOf(addr),
		addr:    addr.BlockAddr(),
		mapv:    key,
		region:  region,
		prev:    nilTag,
		next:    nilTag,
		lru:     d.touch(),
	}
	d.tagsOcc.inc()
	d.linkHead(de, t)
	d.data[de].lru = d.tick
}

// allocData finds a victim frame for key, evicting its current occupant
// (and that occupant's entire tag list, §3.5), then installs payload.
func (d *Doppelganger) allocData(key uint32, precise bool, payload *memdata.Block, eff *Effects) int32 {
	de := d.victimData(key)
	if d.data[de].valid {
		d.evictData(de, eff)
	}
	if d.cfg.CompressedData {
		d.ensureBudget(key, bdi.CompressedSize(payload), -1, eff)
	}
	d.data[de] = dataEntry{
		valid:   true,
		precise: precise,
		key:     key,
		head:    nilTag,
		lru:     d.touch(),
	}
	d.setPayload(de, payload)
	d.dataOcc.inc()
	eff.MTagWrites++
	eff.DDataWrites++
	return de
}

// evictData evicts a data entry for capacity: every tag in its list is
// invalidated, dirty tags queue writebacks of the representative data to
// their own addresses, and the hierarchy is told to back-invalidate each
// (§3.5).
func (d *Doppelganger) evictData(de int32, eff *Effects) {
	e := &d.data[de]
	d.Stats.DataEvictions++
	d.Stats.TagsAtDataEviction += uint64(e.count)
	rep := d.payloadOf(de)
	for t := e.head; t != nilTag; {
		te := &d.tags[t]
		next := te.next
		if te.dirty {
			d.store.WriteBlock(te.addr, &rep)
			eff.MemWrites++
			d.Stats.DirtyTagEvictions++
		}
		eff.Evicted = append(eff.Evicted, Eviction{Addr: te.addr, Dirty: te.dirty})
		d.Stats.TagEvictions++
		d.tagsOcc.dec()
		*te = tagEntry{prev: nilTag, next: nilTag}
		t = next
	}
	d.freeData(de, eff)
}

func (d *Doppelganger) freeData(de int32, eff *Effects) {
	d.clearPayload(de)
	d.data[de] = dataEntry{head: nilTag}
	d.dataOcc.dec()
	eff.MTagWrites++
}

// evictTag evicts a single tag (capacity victim or explicit invalidation):
// it is unlinked (freeing the data entry if it was the sole member), a
// writeback of the representative data is generated if dirty, and the
// hierarchy back-invalidates the address.
func (d *Doppelganger) evictTag(t int32, eff *Effects) {
	te := &d.tags[t]
	de := d.dataOf(t)
	if te.dirty {
		rep := d.payloadOf(de)
		d.store.WriteBlock(te.addr, &rep)
		eff.MemWrites++
		d.Stats.DirtyTagEvictions++
	}
	eff.Evicted = append(eff.Evicted, Eviction{Addr: te.addr, Dirty: te.dirty})
	d.Stats.TagEvictions++
	d.tagsOcc.dec()
	d.unlink(t)
	eff.MTagWrites++
	*te = tagEntry{prev: nilTag, next: nilTag}
}

// WriteBack implements §3.4: a dirty block arrives from L2 and the map is
// recomputed. If the map is unchanged only the dirty bit is set; if it
// changed, the tag migrates to the data entry of the new map, allocating
// one if necessary. When the tag lands on an existing entry the written
// values are discarded — the write made the block similar to data already
// in the cache.
func (d *Doppelganger) WriteBack(addr memdata.Addr, payload *memdata.Block) *Effects {
	d.Stats.WriteBacks++
	eff := &d.eff
	eff.reset()
	eff.DTagReads = 1
	t := d.probeTag(addr)
	if t == nilTag {
		// Inclusivity corner: tag already evicted. Insert fresh as dirty.
		d.Stats.WritebackMisses++
		d.insert(addr, payload, true, eff)
		return eff
	}
	eff.Hit = true
	te := &d.tags[t]
	te.lru = d.touch()

	if te.precise {
		de := d.dataOf(t)
		if d.cfg.CompressedData {
			delta := bdi.CompressedSize(payload) - len(d.data[de].comp)
			d.ensureBudget(te.mapv, delta, de, eff)
		}
		d.setPayload(de, payload)
		d.data[de].lru = d.tick
		te.dirty = true
		eff.MTagReads, eff.DDataWrites = 1, 1
		return eff
	}

	if !d.qc.Allow() {
		// The quality breaker is open: instead of regenerating a map value,
		// migrate the tag to a precise entry holding the written payload.
		d.migratePrecise(t, payload, eff)
		return eff
	}

	newMap := d.cfg.MapSpec.MapValue(payload, te.region)
	if d.inj != nil {
		newMap = d.inj.CorruptBits(faults.MapGen, newMap, d.cfg.MapSpec.M)
	}
	d.Stats.MapGens++
	eff.MapGens++
	if newMap == te.mapv {
		d.Stats.SilentWrites++
		te.dirty = true
		if d.qc.Sample() {
			// Silent-write canary: the written values are discarded in favor
			// of the resident representative (§3.4), a substitution.
			rep := d.payloadOf(d.dataOf(t))
			d.qc.Observe(te.region, &rep, payload)
		}
		return eff
	}

	// The map changed: migrate the tag. Unlink first so a victim search for
	// the new map can never collide with a stale self-link.
	d.unlink(t)
	eff.MTagWrites++
	de := d.probeData(newMap, false)
	eff.MTagReads++
	if de >= 0 {
		d.Stats.Remaps++
		eff.MTagWrites++
		if d.qc.Sample() {
			// Remap-onto-existing canary: the written payload lands on an
			// already-resident representative, another substitution point.
			rep := d.payloadOf(de)
			d.qc.Observe(te.region, &rep, payload)
		}
	} else {
		de = d.allocData(newMap, false, payload, eff)
		d.Stats.WriteAllocs++
	}
	te.mapv = newMap
	te.dirty = true
	d.linkHead(de, t)
	d.data[de].lru = d.tick
	return eff
}

// EvictFor implements LLC: invalidate addr's tag if present.
func (d *Doppelganger) EvictFor(addr memdata.Addr) *Effects {
	eff := &d.eff
	eff.reset()
	eff.DTagReads = 1
	if t := d.probeTag(addr); t != nilTag {
		d.evictTag(t, eff)
	}
	return eff
}

// Contains implements LLC.
func (d *Doppelganger) Contains(addr memdata.Addr) bool { return d.probeTag(addr) != nilTag }

// Snapshot implements LLC: each valid tag contributes one block whose
// payload is its representative data entry — exactly what an upper-level
// cache would observe on a hit.
func (d *Doppelganger) Snapshot() []SnapshotBlock {
	var out []SnapshotBlock
	for t := range d.tags {
		te := &d.tags[t]
		if !te.valid {
			continue
		}
		de := d.dataOf(int32(t))
		out = append(out, SnapshotBlock{Addr: te.addr, Data: d.payloadOf(de), Region: te.region})
	}
	return out
}

// TagEntries implements LLC.
func (d *Doppelganger) TagEntries() int {
	n := 0
	for i := range d.tags {
		if d.tags[i].valid {
			n++
		}
	}
	return n
}

// DataBlocks implements LLC.
func (d *Doppelganger) DataBlocks() int {
	n := 0
	for i := range d.data {
		if d.data[i].valid {
			n++
		}
	}
	return n
}

// AvgTagsPerData returns the current mean tag-list length over valid data
// entries (the paper reports 4.4 on average, §3.5).
func (d *Doppelganger) AvgTagsPerData() float64 {
	tags, entries := 0, 0
	for i := range d.data {
		if d.data[i].valid {
			entries++
			tags += int(d.data[i].count)
		}
	}
	if entries == 0 {
		return 0
	}
	return float64(tags) / float64(entries)
}
