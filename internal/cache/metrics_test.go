package cache

import (
	"testing"

	"doppelganger/internal/memdata"
	"doppelganger/internal/metrics"
)

func testCache() *Cache {
	return New(Config{Name: "L1", SizeBytes: 32 << 10, Ways: 4})
}

// TestDisabledMetricsZeroAllocs locks down the access path: Lookup and
// Install count in the array's plain Stats and must not allocate at all.
func TestDisabledMetricsZeroAllocs(t *testing.T) {
	c := testCache()
	// Pre-fault every set so steady-state Install never grows anything.
	for a := memdata.Addr(0); a < 64<<10; a += memdata.BlockSize {
		c.Install(c.Victim(a), a, nil)
	}
	addr := memdata.Addr(0x1240)
	c.Install(c.Victim(addr), addr, nil)
	n := testing.AllocsPerRun(1000, func() {
		if c.Lookup(addr) == nil { // hit path
			t.Fatal("expected hit")
		}
		c.Lookup(addr + 1<<20)                     // miss path
		miss := addr + memdata.Addr(c.tick%64)<<20 // rotate evictions
		c.Install(c.Victim(miss), miss, nil)       // eviction path
		c.Install(c.Victim(addr), addr, nil)       // restore the hit line
	})
	if n != 0 {
		t.Fatalf("disabled-metrics hot path allocates %v allocs/op, want 0", n)
	}
}

// TestEnabledMetricsCountsMatchStats checks PublishMetrics maps each
// published name to the right Stats field. The access pattern gives the four
// fields four different values, so a swapped pair of names cannot pass.
func TestEnabledMetricsCountsMatchStats(t *testing.T) {
	c := testCache()
	for a := memdata.Addr(0); a < 128<<10; a += memdata.BlockSize {
		c.Install(c.Victim(a), a, nil)
		c.Lookup(a)
		if a%(2*memdata.BlockSize) == 0 {
			c.Lookup(a + 1<<24)
		}
		if a%(4*memdata.BlockSize) == 0 {
			c.Probe(a).Dirty = true
		}
	}
	st := c.Stats
	if st.Hits == st.Misses || st.Hits == st.Evictions || st.Misses == st.Evictions || st.Dirty == 0 {
		t.Fatalf("stats %+v do not tell the fields apart", st)
	}
	reg := metrics.NewRegistry()
	c.PublishMetrics(reg)
	checks := []struct {
		name string
		want uint64
	}{
		{"cache.l1.hits", c.Stats.Hits},
		{"cache.l1.misses", c.Stats.Misses},
		{"cache.l1.evictions", c.Stats.Evictions},
		{"cache.l1.dirty_evictions", c.Stats.Dirty},
	}
	for _, ck := range checks {
		if got := reg.CounterValue(ck.name); got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, got, ck.want)
		}
	}
}
