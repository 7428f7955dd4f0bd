package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The digest metadata is what keys the decoded cache: WriteTo and both
// decode modes must agree on FileCRC, the preamble probe must match it, and
// a header-only difference must change it.
func TestDecodedDigestFields(t *testing.T) {
	c := testCapture(t)
	raw := encodeCapture(t, c)
	if c.FileCRC == 0 {
		t.Fatal("WriteTo left the file digest unset")
	}

	full, err := readCaptureStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if full.FileCRC != c.FileCRC {
		t.Fatalf("decode file digest %016x differs from encode %016x", full.FileCRC, c.FileCRC)
	}
	path := filepath.Join(t.TempDir(), "c.dgt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	lite, err := ReadCaptureOutputFileFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if lite.FileCRC != c.FileCRC {
		t.Fatalf("output-only decode file digest %016x, want %016x", lite.FileCRC, c.FileCRC)
	}

	// The cheap preamble probe and the full decode must name the same file.
	var pre [16]byte
	copy(pre[:], raw[:16])
	if got := preambleDigest(pre); got != full.FileCRC {
		t.Fatalf("preamble digest %016x != decoded FileCRC %016x", got, full.FileCRC)
	}

	// A header-only change (different cell identity) moves the file digest.
	c2 := testCapture(t)
	c2.Header.ConfigKey = "dgtf1|other/blackscholes|scale=0.25|cores=2"
	c2.Header.Seed = 99
	encodeCapture(t, c2)
	if c2.FileCRC == c.FileCRC {
		t.Fatalf("header change did not move the file digest (%016x)", c2.FileCRC)
	}
}

func TestDecodedCacheHitMissLRU(t *testing.T) {
	c := testCapture(t)
	dc := NewDecodedCache(1 << 20)

	if got := dc.Get(1); got != nil {
		t.Fatal("hit on an empty cache")
	}
	dc.Put(1, c)
	dc.Put(2, c)
	dc.Put(3, c)
	if got := dc.Get(2); got != c {
		t.Fatal("miss on a resident digest")
	}
	st := dc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 3 entries, 0 evictions", st)
	}
	if st.Bytes != 3*c.SizeBytes() {
		t.Fatalf("bytes = %d, want 3 x %d", st.Bytes, c.SizeBytes())
	}

	// An output-only decode carries no streams or memory image, so the
	// cache refuses it: a hierarchy replay must never be handed one.
	path := filepath.Join(t.TempDir(), "c.dgt")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	lite, err := ReadCaptureOutputFileFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	dc.Put(4, lite)
	if dc.Get(4) != nil {
		t.Fatal("output-only capture was cached")
	}
	if got := dc.Stats().Entries; got != st.Entries {
		t.Fatalf("entries = %d after an output-only put, want %d", got, st.Entries)
	}

	// Shrink-to-budget eviction is LRU: after touching 2, a flood of new
	// entries under a budget of ~2 captures must evict 1 and 3 before 2.
	small := NewDecodedCache(2*c.SizeBytes() + 1)
	small.Put(1, c)
	small.Put(2, c)
	small.Get(1)    // 1 is now more recent than 2
	small.Put(3, c) // over budget: evicts 2 (LRU)
	if small.Get(2) != nil {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if small.Get(1) == nil || small.Get(3) == nil {
		t.Fatal("recently used entries were evicted before the LRU one")
	}
}

// Satellite: eviction under memory pressure. A stream of decoded captures
// larger than the budget must keep the cache's byte estimate at or under
// budget (while more than one entry is resident), evict in LRU order, and
// count every eviction.
func TestDecodedCacheEvictionUnderMemoryPressure(t *testing.T) {
	c := testCapture(t)
	per := c.SizeBytes()
	const keep = 3
	dc := NewDecodedCache(keep * per)

	const n = 32
	for i := uint64(1); i <= n; i++ {
		dc.Put(i, c)
		if st := dc.Stats(); st.Bytes > keep*per {
			t.Fatalf("after put %d: %d bytes resident exceeds the %d budget", i, st.Bytes, keep*per)
		}
	}
	st := dc.Stats()
	if st.Entries != keep {
		t.Fatalf("entries = %d, want %d", st.Entries, keep)
	}
	if st.Evictions != n-keep {
		t.Fatalf("evictions = %d, want %d", st.Evictions, n-keep)
	}
	// The survivors are exactly the most recent puts.
	for i := uint64(1); i <= n-keep; i++ {
		if dc.Get(i) != nil {
			t.Fatalf("evicted digest %d still resident", i)
		}
	}
	for i := uint64(n - keep + 1); i <= n; i++ {
		if dc.Get(i) == nil {
			t.Fatalf("recent digest %d was evicted", i)
		}
	}
}

// A capture bigger than the whole budget must still be cacheable alone —
// evicting the only entry would make every oversized trace thrash.
func TestDecodedCacheOversizedEntryStays(t *testing.T) {
	c := testCapture(t)
	dc := NewDecodedCache(1) // budget smaller than any capture
	dc.Put(7, c)
	if dc.Get(7) != c {
		t.Fatal("sole over-budget entry was evicted")
	}
	dc.Put(8, c) // a second over-budget entry evicts the first
	st := dc.Stats()
	if st.Entries != 1 || dc.Get(8) != c {
		t.Fatalf("entries = %d after second oversized put, want just the newest", st.Entries)
	}
	if dc.Get(7) != nil {
		t.Fatal("older oversized entry survived")
	}

	// Re-putting a resident digest refreshes recency instead of double
	// charging the budget.
	dc.Put(8, c)
	if got := dc.Stats().Bytes; got != c.SizeBytes() {
		t.Fatalf("re-put double charged: %d bytes for one entry of %d", got, c.SizeBytes())
	}
}
