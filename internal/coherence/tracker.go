package coherence

import (
	"fmt"

	"doppelganger/internal/metrics"
)

// Tracker counts MSI directory transitions and back-invalidations. The
// functional hierarchy drives one Tracker per run; the counts are plain
// array increments (no allocation), published into a metrics registry once
// per run by PublishMetrics.
//
// A nil *Tracker is safe: every method no-ops.
type Tracker struct {
	counts     [3][3]uint64
	backInvals uint64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// PublishMetrics adds the counts to reg under "coherence.msi.<from>_to_<to>"
// plus "coherence.back_invalidations". Self-transitions are not counted, so
// only the six state-changing cells are published. A nil registry is a
// no-op.
func (t *Tracker) PublishMetrics(reg *metrics.Registry) {
	if t == nil || reg == nil {
		return
	}
	for from := Invalid; from <= Modified; from++ {
		for to := Invalid; to <= Modified; to++ {
			if from != to {
				reg.Counter(fmt.Sprintf("coherence.msi.%s_to_%s", from, to)).Add(t.counts[from][to])
			}
		}
	}
	reg.Counter("coherence.back_invalidations").Add(t.backInvals)
}

// Transition records a directory state change; same-state "transitions" are
// ignored (stable state, not a protocol event).
func (t *Tracker) Transition(from, to State) {
	if t == nil || from == to || from > Modified || to > Modified {
		return
	}
	t.counts[from][to]++
}

// BackInvalidation records one LLC-eviction-driven back-invalidation of the
// private caches.
func (t *Tracker) BackInvalidation() {
	if t == nil {
		return
	}
	t.backInvals++
}

// Count returns the number of recorded from→to transitions.
func (t *Tracker) Count(from, to State) uint64 {
	if t == nil || from > Modified || to > Modified {
		return 0
	}
	return t.counts[from][to]
}

// Total returns the number of state-changing transitions recorded.
func (t *Tracker) Total() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for from := range t.counts {
		for to := range t.counts[from] {
			n += t.counts[from][to]
		}
	}
	return n
}

// BackInvalidations returns the recorded back-invalidation count.
func (t *Tracker) BackInvalidations() uint64 {
	if t == nil {
		return 0
	}
	return t.backInvals
}
