package trace

import (
	"container/list"
	"sync"

	"doppelganger/internal/metrics"
)

// DecodedCache is a bounded LRU cache of fully decoded captures, keyed by
// whole-file digest (Capture.FileCRC — the value FileDigest reads from a
// file's 16-byte preamble). It sits above the on-disk store: a consumer
// probes the preamble, asks the cache, and only on a miss pays the full
// read + CRC + decode + memory-image reconstruction, after which the decoded
// capture is shared by every later cell that replays the same file.
//
// Cached captures are immutable by convention: replay clones InitialMem
// (page-granular COW) and only reads Recorder/Annotations/Output, so one
// decoded capture can be handed to any number of concurrent replays. The
// cache itself is safe for concurrent use and may be shared across runners
// (the sweep server attaches one cache to every shard).
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

	mHits, mMisses, mEvictions *metrics.Counter
	mBytes                     *metrics.Gauge
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
// single most recent capture.
func NewDecodedCache(budgetBytes int64) *DecodedCache {
	return &DecodedCache{
		budget:  budgetBytes,
		lru:     list.New(),
		entries: make(map[uint64]*list.Element),
	}
}

// AttachMetrics mirrors the cache's counters into reg as
// trace.decoded_cache.{hits,misses,evictions} counters and a
// trace.decoded_cache.bytes gauge. nil detaches.
func (dc *DecodedCache) AttachMetrics(reg *metrics.Registry) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if reg == nil {
		dc.mHits, dc.mMisses, dc.mEvictions, dc.mBytes = nil, nil, nil, nil
		return
	}
	dc.mHits = reg.Counter("trace.decoded_cache.hits")
	dc.mMisses = reg.Counter("trace.decoded_cache.misses")
	dc.mEvictions = reg.Counter("trace.decoded_cache.evictions")
	dc.mBytes = reg.Gauge("trace.decoded_cache.bytes")
	dc.mBytes.Set(dc.bytes)
}

// Get returns the decoded capture with the given file digest, or nil. A hit
// marks the entry most recently used.
func (dc *DecodedCache) Get(digest uint64) *Capture {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	e, ok := dc.entries[digest]
	if !ok {
		dc.misses++
		if dc.mMisses != nil {
			dc.mMisses.Inc()
		}
		return nil
	}
	dc.hits++
	if dc.mHits != nil {
		dc.mHits.Inc()
	}
	dc.lru.MoveToFront(e)
	return e.Value.(*decodedEntry).c
}

// Put inserts a decoded capture under its file digest and evicts LRU entries
// until the budget holds again. Re-putting a resident digest only refreshes
// its recency: a digest names exact file bytes, so the capture cannot have
// changed. A capture without its access streams or memory image (an
// output-only decode) is ignored, so the cache can never hand one to a
// hierarchy replay.
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
		if dc.mEvictions != nil {
			dc.mEvictions.Inc()
		}
	}
	if dc.mBytes != nil {
		dc.mBytes.Set(dc.bytes)
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
