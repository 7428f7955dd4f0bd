package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilSinkSafety drives every instrument method through a nil registry
// and nil instruments: the disabled path must be a total no-op.
func TestNilSinkSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}, "t"); err != nil {
		t.Fatal(err)
	}
	if r.CounterValue("x") != 0 || r.GaugeValue("y") != 0 {
		t.Fatal("nil registry lookups must read as zero")
	}
	r.Merge(NewRegistry())
	NewRegistry().Merge(r)

	var tw *TraceWriter
	tw.Complete(0, 0, "a", "b", 1, 2)
	tw.Instant(0, 0, "a", "b", 1)
	tw.ProcessName(0, "p")
	if tw.Events() != 0 || tw.Close() != nil || tw.Err() != nil {
		t.Fatal("nil trace writer must no-op")
	}
}

// TestSharedInstruments verifies that equal names resolve to the same
// storage, so per-core attachments aggregate.
func TestSharedInstruments(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("cache.l1.hits"), r.Counter("cache.l1.hits")
	if a != b {
		t.Fatal("same name must share a counter")
	}
	a.Add(2)
	b.Add(3)
	if got := r.CounterValue("cache.l1.hits"); got != 5 {
		t.Fatalf("aggregated value = %d, want 5", got)
	}
	if g1, g2 := r.Gauge("g"), r.Gauge("g"); g1 != g2 {
		t.Fatal("same name must share a gauge")
	}
	if h1, h2 := r.Histogram("h", []float64{1}), r.Histogram("h", []float64{9}); h1 != h2 {
		t.Fatal("same name must share a histogram")
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("occ")
	g.Add(5)
	g.Add(3)
	g.Add(-6)
	if g.Value() != 2 || g.Max() != 8 {
		t.Fatalf("gauge = (%d, max %d), want (2, max 8)", g.Value(), g.Max())
	}
	g.Set(1)
	if g.Value() != 1 || g.Max() != 8 {
		t.Fatalf("after Set: (%d, max %d), want (1, max 8)", g.Value(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 4, 16})
	for _, v := range []float64{0, 1, 2, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 108 {
		t.Fatalf("sum = %d, want 108", h.Sum())
	}
	var s Sample
	for _, smp := range r.Snapshot() {
		if smp.Name == "lat" {
			s = smp
		}
	}
	want := []Bucket{{Le: 1, Count: 2}, {Le: 4, Count: 1}, {Le: 16, Count: 1}, {Le: -1, Count: 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
}

// TestObserveNEqualsRepeatedObserve checks the bulk add against n single
// observations of the same value, for values in every bucket, on a bucket
// bound, in the overflow bucket, at zero and below zero: count, sum and every
// bucket, overflow included, must agree.
func TestObserveNEqualsRepeatedObserve(t *testing.T) {
	bounds := []float64{1, 4, 16}
	bulk, single := NewRegistry(), NewRegistry()
	hb, hs := bulk.Histogram("h", bounds), single.Histogram("h", bounds)
	for i, v := range []float64{-3, 0, 0.4, 1, 2.5, 4, 9, 16, 17, 1e6} {
		n := uint64(3*i + 1)
		hb.ObserveN(v, n)
		for j := uint64(0); j < n; j++ {
			hs.Observe(v)
		}
	}
	hb.ObserveN(5, 0)
	if hb.Count() != hs.Count() || hb.Sum() != hs.Sum() {
		t.Fatalf("bulk (count %d, sum %d), single (count %d, sum %d)", hb.Count(), hb.Sum(), hs.Count(), hs.Sum())
	}
	got, want := bulk.Snapshot(), single.Snapshot()
	if len(got) != 1 || len(want) != 1 || len(got[0].Buckets) != len(bounds)+1 {
		t.Fatalf("bulk snapshot %+v, single %+v", got, want)
	}
	for i := range want[0].Buckets {
		if got[0].Buckets[i] != want[0].Buckets[i] {
			t.Errorf("bucket %d: bulk %+v, single %+v", i, got[0].Buckets[i], want[0].Buckets[i])
		}
	}
	var h *Histogram
	h.ObserveN(1, 5) // nil receiver: no-op
}

// TestSnapshotDeterminism: two snapshots of the same state are identical and
// sorted by name within kind.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(1)
	r.Counter("a").Add(2)
	r.Gauge("z").Set(3)
	r.Histogram("m", []float64{1}).Observe(0)
	s1, s2 := r.Snapshot(), r.Snapshot()
	if len(s1) != 4 || len(s1) != len(s2) {
		t.Fatalf("snapshot sizes %d/%d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name || s1[i].Value != s2[i].Value {
			t.Fatalf("snapshot not deterministic at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	if s1[0].Name != "a" || s1[1].Name != "b" {
		t.Fatalf("counters not sorted: %s, %s", s1[0].Name, s1[1].Name)
	}
}

func TestMerge(t *testing.T) {
	parent, child := NewRegistry(), NewRegistry()
	parent.Counter("c").Add(10)
	child.Counter("c").Add(5)
	child.Counter("only-child").Add(7)
	child.Gauge("g").Set(4)
	child.Histogram("h", []float64{1, 2}).Observe(2)
	parent.Merge(child)
	if got := parent.CounterValue("c"); got != 15 {
		t.Fatalf("merged counter = %d, want 15", got)
	}
	if got := parent.CounterValue("only-child"); got != 7 {
		t.Fatalf("merged new counter = %d, want 7", got)
	}
	if got := parent.GaugeValue("g"); got != 4 {
		t.Fatalf("merged gauge = %d, want 4", got)
	}
	if got := parent.Histogram("h", nil).Count(); got != 1 {
		t.Fatalf("merged histogram count = %d, want 1", got)
	}
}

// TestConcurrentUse hammers one registry from many goroutines; run under
// -race this proves the instruments are data-race free.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			g := r.Gauge("depth")
			h := r.Histogram("dist", []float64{10, 100})
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("shared"); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("dist", nil).Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestWriteJSONL checks every line is a standalone valid JSON object with
// the task label.
func TestWriteJSONL(t *testing.T) {
	r := NewRegistry()
	r.Counter("funcsim.l1.hits").Add(42)
	r.Gauge("core.doppel.data_occupied").Set(9)
	r.Histogram("timesim.rob_occupancy", []float64{16, 80}).Observe(12)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, "jpeg/baseline"); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", lines, err, sc.Text())
		}
		if obj["task"] != "jpeg/baseline" {
			t.Fatalf("line %d task = %v", lines, obj["task"])
		}
		if obj["name"] == "" || obj["kind"] == "" {
			t.Fatalf("line %d missing name/kind: %s", lines, sc.Text())
		}
	}
	if lines != 3 {
		t.Fatalf("got %d JSONL lines, want 3", lines)
	}
}

// TestChromeTrace checks the envelope is valid JSON loadable by
// chrome://tracing: a traceEvents array with our events in order.
func TestChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.ProcessName(1, "jpeg/split timing")
	tw.ThreadName(1, 0, "core 0")
	tw.Complete(1, 0, "mem", "timesim", 100, 160)
	tw.Instant(1, 2, "back-inval", "timesim", 260)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if tw.Events() != 4 {
		t.Fatalf("events = %d, want 4", tw.Events())
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("trace has %d events, want 4", len(doc.TraceEvents))
	}
	x := doc.TraceEvents[2]
	if x.Name != "mem" || x.Ph != "X" || x.Ts != 100 || x.Dur != 160 || x.Pid != 1 || x.Tid != 0 {
		t.Fatalf("complete event mismatch: %+v", x)
	}
	// Close is idempotent and terminal.
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	tw.Instant(1, 0, "late", "x", 999)
	if !strings.HasSuffix(strings.TrimSpace(buf.String()), "]}") {
		t.Fatal("envelope not terminated")
	}
}

// TestConcurrentTraceWriter proves interleaved emitters still produce valid
// JSON (run under -race for the data-race half of the claim).
func TestConcurrentTraceWriter(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tw.Complete(w, i%4, "op", "t", float64(i), 1)
			}
		}()
	}
	wg.Wait()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("concurrent trace invalid: %v", err)
	}
	if len(doc.TraceEvents) != 800 {
		t.Fatalf("events = %d, want 800", len(doc.TraceEvents))
	}
}
