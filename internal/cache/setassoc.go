// Package cache implements a generic set-associative cache array with true
// LRU replacement. It is the building block for the private L1/L2 caches,
// the baseline and precise LLCs, and (via decoupled instantiation) the tag
// and data arrays of the Doppelgänger cache.
//
// The arrays are functional: they track tags, data payloads, dirty bits and
// per-line coherence metadata, but carry no timing. The timing simulator
// attaches latencies on top.
package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"doppelganger/internal/coherence"
	"doppelganger/internal/faults"
	"doppelganger/internal/memdata"
	"doppelganger/internal/metrics"
)

// Config describes one set-associative array.
type Config struct {
	Name      string
	SizeBytes int // total data capacity; must be Ways*Sets*BlockSize
	Ways      int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	return c.SizeBytes / (memdata.BlockSize * c.Ways)
}

// Blocks returns the number of block frames.
func (c Config) Blocks() int { return c.SizeBytes / memdata.BlockSize }

// Validate checks that the geometry is a power-of-two set count.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(memdata.BlockSize*c.Ways) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible into %d ways of %dB blocks", c.Name, c.SizeBytes, c.Ways, memdata.BlockSize)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %q: set count %d is not a power of two", c.Name, s)
	}
	return nil
}

// Line is one cache frame. Coh is the frame's MSI state in a private cache.
type Line struct {
	Valid bool
	Dirty bool
	Tag   uint32
	Addr  memdata.Addr // full block address (redundant with Tag+set, kept for convenience)
	Data  memdata.Block
	Coh   coherence.State
	lru   uint64
}

// Stats counts functional events on the array.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Dirty     uint64 // dirty evictions (writebacks)
}

// Cache is a set-associative array with LRU replacement.
type Cache struct {
	cfg      Config
	sets     [][]Line
	setShift uint
	setMask  uint32
	tick     uint64
	Stats    Stats

	// Fault injection (nil = disabled fast path).
	inj             *faults.Injector
	injTag, injData faults.Target
}

// New builds an array from cfg, panicking on invalid geometry (all
// configurations in this repository are static).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]Line, nsets),
		setShift: memdata.OffsetBits,
		setMask:  uint32(nsets - 1),
	}
	backing := make([]Line, nsets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return c
}

// Config returns the array geometry.
func (c *Cache) Config() Config { return c.cfg }

// PublishMetrics adds the array's Stats to reg under "cache.<name>.*".
// Per-core arrays share a config name, so their counts aggregate. A nil
// registry is a no-op.
func (c *Cache) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	prefix := "cache." + strings.ToLower(c.cfg.Name) + "."
	reg.Counter(prefix + "hits").Add(c.Stats.Hits)
	reg.Counter(prefix + "misses").Add(c.Stats.Misses)
	reg.Counter(prefix + "evictions").Add(c.Stats.Evictions)
	reg.Counter(prefix + "dirty_evictions").Add(c.Stats.Dirty)
}

// AttachFaults wires a fault injector into the array's hit path, charging
// draws against the given tag/data targets. A nil injector leaves the
// disabled fast path (one nil check per hit, zero allocations).
func (c *Cache) AttachFaults(inj *faults.Injector, tag, data faults.Target) {
	c.inj, c.injTag, c.injData = inj, tag, data
}

// SetIndexBits returns log2(number of sets).
func (c *Cache) SetIndexBits() int { return bits.TrailingZeros32(c.setMask + 1) }

// TagBits returns the tag width for a 32-bit physical address.
func (c *Cache) TagBits() int { return 32 - memdata.OffsetBits - c.SetIndexBits() }

func (c *Cache) setIndex(addr memdata.Addr) uint32 {
	return (uint32(addr) >> c.setShift) & c.setMask
}

func (c *Cache) tagOf(addr memdata.Addr) uint32 {
	return uint32(addr) >> (c.setShift + uint(c.SetIndexBits()))
}

// Lookup finds the line holding addr's block, updating LRU on a hit.
// It returns nil on a miss. Stats are updated.
func (c *Cache) Lookup(addr memdata.Addr) *Line {
	if l := c.Probe(addr); l != nil {
		c.touch(l)
		c.Stats.Hits++
		if c.inj != nil {
			c.injectHit(l)
		}
		return l
	}
	c.Stats.Misses++
	return nil
}

// injectHit draws faults against the line being returned from a hit: one
// data-array draw that may corrupt the stored payload in place, and one
// tag-array draw that may flip a stored tag bit. The Addr field is the
// simulator's ground truth for writebacks and back-invalidations and is
// deliberately left intact — a corrupted tag makes the line stop answering
// for its true address (and possibly answer for another), which the
// hierarchy's inclusivity corners already absorb.
func (c *Cache) injectHit(l *Line) {
	c.inj.CorruptBlock(c.injData, &l.Data)
	l.Tag = c.inj.CorruptBits(c.injTag, l.Tag, c.TagBits())
}

// Probe finds the line holding addr's block without updating LRU or stats.
func (c *Cache) Probe(addr memdata.Addr) *Line {
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return &set[i]
		}
	}
	return nil
}

// touch marks l most recently used.
func (c *Cache) touch(l *Line) {
	c.tick++
	l.lru = c.tick
}

// Touch promotes the line to MRU; exported for callers that Probe first.
func (c *Cache) Touch(l *Line) { c.touch(l) }

// Victim selects the fill victim for addr's set: an invalid way if one
// exists, otherwise the LRU line. The returned line is still live; callers
// inspect it (for writebacks / back-invalidations) before overwriting.
func (c *Cache) Victim(addr memdata.Addr) *Line {
	set := c.sets[c.setIndex(addr)]
	victim := &set[0]
	for i := range set {
		if !set[i].Valid {
			return &set[i]
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

// Install fills addr's block into l (which must come from Victim(addr)),
// resetting metadata and promoting it to MRU, and returns l, the frame now
// holding the block. Eviction bookkeeping is the caller's responsibility;
// Install records eviction stats if l was valid.
func (c *Cache) Install(l *Line, addr memdata.Addr, data *memdata.Block) *Line {
	if l.Valid {
		c.Stats.Evictions++
		if l.Dirty {
			c.Stats.Dirty++
		}
	}
	*l = Line{
		Valid: true,
		Tag:   c.tagOf(addr),
		Addr:  addr.BlockAddr(),
	}
	if data != nil {
		l.Data = *data
	}
	c.touch(l)
	return l
}

// Invalidate drops addr's block if present, returning the stale line value
// (for writeback decisions) and whether it was present.
func (c *Cache) Invalidate(addr memdata.Addr) (Line, bool) {
	if l := c.Probe(addr); l != nil {
		old := *l
		*l = Line{}
		return old, true
	}
	return Line{}, false
}

// ForEachValid visits every valid line; used by the snapshot analyzers.
func (c *Cache) ForEachValid(fn func(l *Line)) {
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].Valid {
				fn(&c.sets[s][w])
			}
		}
	}
}

// ValidCount returns the number of valid lines.
func (c *Cache) ValidCount() int {
	n := 0
	c.ForEachValid(func(*Line) { n++ })
	return n
}

// Flush invalidates the entire array, returning dirty lines to the caller
// in unspecified order so writebacks can be performed.
func (c *Cache) Flush() []Line {
	var dirty []Line
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.Valid && l.Dirty {
				dirty = append(dirty, *l)
			}
			*l = Line{}
		}
	}
	return dirty
}
