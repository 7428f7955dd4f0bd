// Package metrics is the simulator-wide observability layer: a registry of
// named counters, gauges and histograms.
//
// Two kinds of layers fill it. Layers that act once per request, capture,
// LLC operation or off-chip access (the sweep server, the capture gateway,
// the decoded-capture cache, the fault injector, the quality controller,
// DRAM) resolve instruments once at attach time, hold them as struct fields
// and count per event. A nil *Registry hands out nil instruments, and every
// instrument method is a no-op on a nil receiver, so with no registry those
// layers pay one nil check per event.
//
// The simulation layers a run owns (cache arrays, the coherence tracker,
// the functional hierarchy, the LLC organizations, the timing core model)
// count per access, so they keep no instruments: they count only in their
// own plain statistics fields and publish those into the registry once,
// when the run returns. One accounting exists per event, and the registry
// holds exactly what those fields hold.
//
// Instruments with the same name share storage: publishing four per-core L1
// arrays to "cache.l1.hits" yields one counter aggregating all four.
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. All methods are safe on
// a nil receiver (the disabled-metrics path) and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed level (occupancy, depth). Safe on a nil
// receiver and for concurrent use. Max tracks the high-water mark of Set.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set replaces the gauge value, updating the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Add moves the gauge by delta, updating the high-water mark.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	v := g.v.Add(delta)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark (0 on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Histogram is a fixed-bucket distribution. Observations count into the
// first bucket whose upper bound is >= the value; values beyond the last
// bound land in the implicit +Inf overflow bucket. Safe on a nil receiver
// and for concurrent use.
type Histogram struct {
	bounds []float64 // immutable after construction, ascending
	counts []atomic.Uint64
	over   atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // total, in value units rounded to uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the value v. It is exact: n
// observations of one value add n to the count, n times the rounded value to
// the sum and n to one bucket, just as n Observe calls do, so a layer that
// counts occurrences per value can publish them in one call per value.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.count.Add(n)
	if v > 0 {
		h.sum.Add(n * uint64(v+0.5))
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(n)
			return
		}
	}
	h.over.Add(n)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the rounded sum of observations (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Kind tags a snapshot entry.
type Kind string

// The instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Bucket is one histogram bucket in a snapshot: the count of observations
// at or below Le (cumulative form is left to consumers).
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Sample is one instrument's state in a snapshot.
type Sample struct {
	Name    string   `json:"name"`
	Kind    Kind     `json:"kind"`
	Value   uint64   `json:"value,omitempty"`   // counters, histogram count
	Level   int64    `json:"level,omitempty"`   // gauges
	Max     int64    `json:"max,omitempty"`     // gauge high-water mark
	Sum     uint64   `json:"sum,omitempty"`     // histogram value sum
	Buckets []Bucket `json:"buckets,omitempty"` // histogram, overflow last (Le = +Inf encoded as -1)
}

// Registry holds named instruments. A nil *Registry is the disabled sink:
// every lookup returns a nil instrument and every method no-ops.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry builds an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns (creating once) the named counter; nil on a nil registry.
// Callers resolve instruments at attach or publish time, never per event.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating once) the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating once) the named histogram with the given
// ascending bucket bounds; nil on a nil registry. Bounds are fixed by the
// first caller; later callers share the same instrument regardless of the
// bounds they pass.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b))}
		r.hists[name] = h
	}
	return h
}

// CounterValue returns the named counter's value, 0 if absent or nil.
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counts[name]
	r.mu.Unlock()
	return c.Value()
}

// GaugeValue returns the named gauge's level, 0 if absent or nil.
func (r *Registry) GaugeValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	g := r.gauges[name]
	r.mu.Unlock()
	return g.Value()
}

// Merge accumulates every instrument of o into r (summing counters and
// histogram buckets, adding gauge levels and taking the max of high-water
// marks). The sweep engine merges per-task child registries into its
// aggregate this way. No-op when either side is nil.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for name, c := range o.counts {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range o.gauges {
		dst := r.Gauge(name)
		dst.Add(g.Value())
		for {
			m, om := dst.max.Load(), g.max.Load()
			if om <= m || dst.max.CompareAndSwap(m, om) {
				break
			}
		}
	}
	for name, h := range o.hists {
		dst := r.Histogram(name, h.bounds)
		for i := range h.counts {
			if i < len(dst.counts) {
				dst.counts[i].Add(h.counts[i].Load())
			}
		}
		dst.over.Add(h.over.Load())
		dst.count.Add(h.count.Load())
		dst.sum.Add(h.sum.Load())
	}
}

// Snapshot returns every instrument's current state, sorted by name within
// kind (counters, then gauges, then histograms) for deterministic export.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.counts)+len(r.gauges)+len(r.hists))
	for _, name := range sortedNames(r.counts) {
		out = append(out, Sample{Name: name, Kind: KindCounter, Value: r.counts[name].Value()})
	}
	for _, name := range sortedNames(r.gauges) {
		g := r.gauges[name]
		out = append(out, Sample{Name: name, Kind: KindGauge, Level: g.Value(), Max: g.Max()})
	}
	for _, name := range sortedNames(r.hists) {
		h := r.hists[name]
		s := Sample{Name: name, Kind: KindHistogram, Value: h.Count(), Sum: h.Sum()}
		for i, b := range h.bounds {
			s.Buckets = append(s.Buckets, Bucket{Le: b, Count: h.counts[i].Load()})
		}
		if over := h.over.Load(); over > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: -1, Count: over}) // -1 encodes +Inf
		}
		out = append(out, s)
	}
	return out
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// jsonLine is the JSONL wire form: a Sample plus the task label it was
// snapshotted under ("total" for whole-run aggregates).
type jsonLine struct {
	Task string `json:"task"`
	Sample
}

// WriteJSONL writes one JSON object per instrument, labeled with task, in
// snapshot order. It is the building block of the -metrics-out flag.
func WriteJSONL(w io.Writer, task string, samples []Sample) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range samples {
		if err := enc.Encode(jsonLine{Task: task, Sample: s}); err != nil {
			return fmt.Errorf("metrics: jsonl: %w", err)
		}
	}
	return bw.Flush()
}

// WriteJSONL writes the registry's snapshot as JSONL under the given task
// label. No-op on a nil registry.
func (r *Registry) WriteJSONL(w io.Writer, task string) error {
	if r == nil {
		return nil
	}
	return WriteJSONL(w, task, r.Snapshot())
}
