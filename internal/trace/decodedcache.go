package trace

import (
	"container/list"
	"sync"
)

// DecodedCache is a bounded LRU cache of fully decoded captures, keyed by
// whole-file digest (Capture.FileCRC — the value FileDigestFS reads from a
// file's 16-byte preamble). It sits above the on-disk store: a consumer
// probes the preamble, asks the cache, and only on a miss pays the full
// read + CRC + decode + memory-image reconstruction, after which the decoded
// capture is shared by every later cell that replays the same file.
// perfbench's traced serve drive is its last caller; the simulator's own
// paths read every capture from the trace directory.
//
// Cached captures are immutable by convention: replay clones InitialMem
// (page-granular COW) and only reads Recorder/Annotations/Output, so one
// decoded capture can be handed to any number of concurrent replays. The
// cache itself is safe for concurrent use.
//
// Eviction charges each entry its SizeBytes estimate against the byte
// budget, evicting least-recently-used entries once the budget is exceeded —
// except that the single most recent entry is always allowed to stay, even
// alone over budget, so a capture larger than the whole budget doesn't turn
// the cache into a thrash loop.
type DecodedCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	lru     *list.List // of *decodedEntry; front = most recently used
	entries map[uint64]*list.Element

	hits, misses, evictions uint64
}

type decodedEntry struct {
	digest uint64
	c      *Capture
	size   int64
}

// DecodedCacheStats is a point-in-time snapshot of the cache's counters.
type DecodedCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Bytes     int64  `json:"bytes"`
	Entries   int    `json:"entries"`
}

// NewDecodedCache builds a cache bounded to roughly budgetBytes of decoded
// captures (estimated by Capture.SizeBytes). A budget <= 0 still caches the
// single most recent capture. perfbench is its last caller.
func NewDecodedCache(budgetBytes int64) *DecodedCache {
	return &DecodedCache{
		budget:  budgetBytes,
		lru:     list.New(),
		entries: make(map[uint64]*list.Element),
	}
}

// Get returns the decoded capture with the given file digest, or nil. A hit
// marks the entry most recently used. perfbench is its last caller.
func (dc *DecodedCache) Get(digest uint64) *Capture {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	e, ok := dc.entries[digest]
	if !ok {
		dc.misses++
		return nil
	}
	dc.hits++
	dc.lru.MoveToFront(e)
	return e.Value.(*decodedEntry).c
}

// Put inserts a decoded capture under its file digest and evicts LRU entries
// until the budget holds again. Re-putting a resident digest only refreshes
// its recency: a digest names exact file bytes, so the capture cannot have
// changed. A capture without its access streams or memory image (an
// output-only decode) is ignored, so the cache can never hand one to a
// hierarchy replay. perfbench is its last caller.
func (dc *DecodedCache) Put(digest uint64, c *Capture) {
	if c == nil || c.Recorder == nil || c.InitialMem == nil {
		return
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if e, ok := dc.entries[digest]; ok {
		dc.lru.MoveToFront(e)
		return
	}
	ent := &decodedEntry{digest: digest, c: c, size: c.SizeBytes()}
	dc.entries[digest] = dc.lru.PushFront(ent)
	dc.bytes += ent.size
	for dc.bytes > dc.budget && dc.lru.Len() > 1 {
		back := dc.lru.Back()
		victim := back.Value.(*decodedEntry)
		dc.lru.Remove(back)
		delete(dc.entries, victim.digest)
		dc.bytes -= victim.size
		dc.evictions++
	}
}

// Stats snapshots the cache's counters and occupancy.
func (dc *DecodedCache) Stats() DecodedCacheStats {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return DecodedCacheStats{
		Hits:      dc.hits,
		Misses:    dc.misses,
		Evictions: dc.evictions,
		Bytes:     dc.bytes,
		Entries:   dc.lru.Len(),
	}
}
