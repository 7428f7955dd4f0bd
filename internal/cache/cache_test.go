package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"doppelganger/internal/memdata"
)

func tiny() *Cache {
	// 4 sets × 2 ways × 64 B = 512 B.
	return New(Config{Name: "t", SizeBytes: 512, Ways: 2})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "g", SizeBytes: 1 << 20, Ways: 16}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero", SizeBytes: 0, Ways: 4},
		{Name: "indivisible", SizeBytes: 1000, Ways: 4},
		{Name: "nonpow2", SizeBytes: 3 * 64 * 4, Ways: 4}, // 3 sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted", c.Name)
		}
	}
}

func TestGeometry(t *testing.T) {
	c := New(Config{Name: "g", SizeBytes: 2 << 20, Ways: 16})
	if c.Config().Sets() != 2048 {
		t.Errorf("sets = %d", c.Config().Sets())
	}
	if c.SetIndexBits() != 11 {
		t.Errorf("index bits = %d", c.SetIndexBits())
	}
	if c.TagBits() != 15 { // Table 3 baseline: 15 tag bits
		t.Errorf("tag bits = %d, want 15", c.TagBits())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := tiny()
	if c.Lookup(0x1000) != nil {
		t.Fatal("hit in empty cache")
	}
	v := c.Victim(0x1000)
	c.Install(v, 0x1000, nil)
	if l := c.Lookup(0x1000); l == nil {
		t.Fatal("miss after install")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestSameSetDifferentTags(t *testing.T) {
	c := tiny() // 4 sets: addresses 0x0, 0x100 (256), 0x200 share set 0
	c.Install(c.Victim(0x000), 0x000, nil)
	c.Install(c.Victim(0x100), 0x100, nil)
	if c.Probe(0x000) == nil || c.Probe(0x100) == nil {
		t.Fatal("two ways of the same set should coexist")
	}
	// Third block in set 0 evicts LRU (0x000).
	c.Install(c.Victim(0x200), 0x200, nil)
	if c.Probe(0x000) != nil {
		t.Error("LRU line not evicted")
	}
	if c.Probe(0x100) == nil || c.Probe(0x200) == nil {
		t.Error("wrong victim chosen")
	}
}

func TestLRUTouchOnLookup(t *testing.T) {
	c := tiny()
	c.Install(c.Victim(0x000), 0x000, nil)
	c.Install(c.Victim(0x100), 0x100, nil)
	c.Lookup(0x000) // 0x000 now MRU; 0x100 is LRU
	c.Install(c.Victim(0x200), 0x200, nil)
	if c.Probe(0x000) == nil {
		t.Error("recently used line evicted")
	}
	if c.Probe(0x100) != nil {
		t.Error("LRU line survived")
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	c := tiny()
	c.Install(c.Victim(0x000), 0x000, nil)
	v := c.Victim(0x100)
	if v.Valid {
		t.Error("victim should be the invalid way")
	}
}

func TestInstallCopiesData(t *testing.T) {
	c := tiny()
	var b memdata.Block
	b[0] = 0xAB
	c.Install(c.Victim(0x40), 0x40, &b)
	b[0] = 0xCD // mutate source after install
	if got := c.Probe(0x40).Data[0]; got != 0xAB {
		t.Errorf("data aliased: %#x", got)
	}
	if c.Probe(0x40).Addr != 0x40 {
		t.Errorf("addr = %v", c.Probe(0x40).Addr)
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Install(c.Victim(0x40), 0x40, nil)
	c.Probe(0x40).Dirty = true
	old, ok := c.Invalidate(0x40)
	if !ok || !old.Dirty {
		t.Fatalf("invalidate = %+v, %v", old, ok)
	}
	if c.Probe(0x40) != nil {
		t.Error("line still present")
	}
	if _, ok := c.Invalidate(0x40); ok {
		t.Error("double invalidate reported a line")
	}
}

func TestFlushReturnsDirty(t *testing.T) {
	c := tiny()
	c.Install(c.Victim(0x000), 0x000, nil)
	c.Install(c.Victim(0x040), 0x040, nil)
	c.Probe(0x040).Dirty = true
	dirty := c.Flush()
	if len(dirty) != 1 || dirty[0].Addr != 0x040 {
		t.Fatalf("flush dirty = %+v", dirty)
	}
	if c.ValidCount() != 0 {
		t.Error("cache not empty after flush")
	}
}

// TestInclusionNeverExceedsWays: property test — after arbitrary installs,
// each set holds at most Ways valid lines and every resident block is
// findable at its own address.
func TestCapacityProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := tiny()
		for _, a := range addrs {
			ba := memdata.Addr(a).BlockAddr()
			if c.Probe(ba) == nil {
				c.Install(c.Victim(ba), ba, nil)
			}
			if c.Probe(ba) == nil {
				return false // just-installed block must be present
			}
		}
		return c.ValidCount() <= 8 // 4 sets × 2 ways
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForEachValidAndEvictionStats(t *testing.T) {
	c := tiny()
	for i := 0; i < 16; i++ {
		ba := memdata.Addr(i * 64)
		v := c.Victim(ba)
		if v.Valid {
			v.Dirty = true // force a dirty eviction count
		}
		c.Install(v, ba, nil)
	}
	if c.Stats.Evictions != 8 {
		t.Errorf("evictions = %d, want 8", c.Stats.Evictions)
	}
	if c.Stats.Dirty != 8 {
		t.Errorf("dirty evictions = %d, want 8", c.Stats.Dirty)
	}
	n := 0
	c.ForEachValid(func(l *Line) { n++ })
	if n != 8 {
		t.Errorf("valid = %d", n)
	}
}

// BenchmarkCacheLookup measures one set probe through Lookup on the
// geometries of the paper's Table 1: the private L1 (16 KB, 4-way) and L2
// (128 KB, 8-way) and the baseline LLC (2 MB, 16-way). Every way of every
// set is valid. Each op looks up the next address of a shuffled slice that
// holds one address per set: on "hit" it matches a way that rotates with
// the set, on "miss" its tag is in no way, so the probe scans the whole set.
func BenchmarkCacheLookup(b *testing.B) {
	for _, cfg := range []Config{
		{Name: "L1", SizeBytes: 16 << 10, Ways: 4},
		{Name: "L2", SizeBytes: 128 << 10, Ways: 8},
		{Name: "LLC", SizeBytes: 2 << 20, Ways: 16},
	} {
		c := New(cfg)
		sets, ways := cfg.Sets(), cfg.Ways
		tagShift := memdata.OffsetBits + c.SetIndexBits()
		addrOf := func(set, tag int) memdata.Addr {
			return memdata.Addr(tag<<tagShift | set<<memdata.OffsetBits)
		}
		for s := 0; s < sets; s++ {
			for w := 0; w < ways; w++ {
				a := addrOf(s, w)
				c.Install(c.Victim(a), a, nil)
			}
		}
		order := rand.New(rand.NewSource(1)).Perm(sets)
		for _, mode := range []string{"hit", "miss"} {
			hit := mode == "hit"
			addrs := make([]memdata.Addr, sets)
			for i, s := range order {
				tag := ways // held by no way
				if hit {
					tag = s % ways
				}
				addrs[i] = addrOf(s, tag)
				if (c.Probe(addrs[i]) != nil) != hit {
					b.Fatalf("%s set %d: probe hit = %v, want %v", cfg.Name, s, !hit, hit)
				}
			}
			mask := sets - 1 // Validate makes the set count a power of two
			b.Run(cfg.Name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.Lookup(addrs[i&mask])
				}
			})
		}
	}
}
