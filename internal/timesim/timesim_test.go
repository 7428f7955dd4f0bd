package timesim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"doppelganger/internal/approx"
	"doppelganger/internal/cache"
	"doppelganger/internal/core"
	"doppelganger/internal/memdata"
	"doppelganger/internal/metrics"
	"doppelganger/internal/trace"
)

func baselineBuilder(size int) func(st *memdata.Store, ann *approx.Annotations) core.LLC {
	return func(st *memdata.Store, ann *approx.Annotations) core.LLC {
		return core.NewBaseline(cache.Config{Name: "LLC", SizeBytes: size, Ways: 4}, st, ann)
	}
}

// mkTrace builds a single-core trace of loads at the given block indices
// with a fixed instruction gap.
func mkTrace(gap uint32, blocks ...int) *trace.Recorder {
	rec := trace.NewRecorder(1)
	for _, b := range blocks {
		rec.Work(0, int(gap))
		rec.Access(0, memdata.Addr(0x1000+b*64), false, 4, 0, false)
	}
	return rec
}

func run1(rec *trace.Recorder, cfg Config) *Result {
	cfg.Cores = 1
	return Run(rec, memdata.NewStore(), nil, baselineBuilder(16<<10), cfg)
}

func TestComputeBoundRuntime(t *testing.T) {
	// One L1-resident block touched repeatedly with big gaps: runtime is
	// dominated by dispatch (gap/width), not memory.
	blocks := make([]int, 100)
	rec := mkTrace(400, blocks...)
	res := run1(rec, DefaultConfig())
	wantMin := uint64(100 * 400 / 4)
	if res.Cycles < wantMin || res.Cycles > wantMin+uint64(float64(wantMin)*0.2) {
		t.Errorf("cycles = %d, want ≈%d", res.Cycles, wantMin)
	}
	if res.Instructions != 100*401 {
		t.Errorf("instructions = %d", res.Instructions)
	}
}

func TestMemoryBoundRuntime(t *testing.T) {
	// Distinct blocks with zero gap: every access misses to memory; with
	// MSHRs=1 they fully serialize at ≥ MemLat each.
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	blocks := make([]int, 50)
	for i := range blocks {
		blocks[i] = i
	}
	res := run1(mkTrace(0, blocks...), cfg)
	if res.Cycles < 50*160 {
		t.Errorf("cycles = %d, want ≥ %d (serialized misses)", res.Cycles, 50*160)
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// With 8 MSHRs the same misses overlap: runtime must be far below the
	// serialized bound but at least one memory latency.
	cfg := DefaultConfig()
	blocks := make([]int, 64)
	for i := range blocks {
		blocks[i] = i
	}
	res := run1(mkTrace(0, blocks...), cfg)
	serial := uint64(64 * 160)
	if res.Cycles >= serial/3 {
		t.Errorf("cycles = %d; MSHR overlap should beat %d by ≥3x", res.Cycles, serial)
	}
	if res.Cycles < 160 {
		t.Errorf("cycles = %d < one memory latency", res.Cycles)
	}
}

func TestROBLimitsOverlap(t *testing.T) {
	// With a huge gap between misses the ROB fills with non-mem
	// instructions, serializing the misses even with many MSHRs.
	cfgWide := DefaultConfig()
	cfgWide.ROB = 10000
	cfgNarrow := DefaultConfig()
	cfgNarrow.ROB = 16
	blocks := make([]int, 64)
	for i := range blocks {
		blocks[i] = i
	}
	wide := run1(mkTrace(64, blocks...), cfgWide)
	narrow := run1(mkTrace(64, blocks...), cfgNarrow)
	if narrow.Cycles <= wide.Cycles {
		t.Errorf("narrow ROB (%d cycles) should be slower than wide (%d)", narrow.Cycles, wide.Cycles)
	}
}

func TestCacheHitsAreCheap(t *testing.T) {
	// Second sweep over a small set of blocks hits in L1/L2; runtime should
	// barely grow.
	blocks := make([]int, 0, 32)
	for i := 0; i < 8; i++ {
		blocks = append(blocks, i)
	}
	once := run1(mkTrace(0, blocks...), DefaultConfig())
	blocks = append(blocks, blocks...)
	blocks = append(blocks, blocks...) // 4 sweeps
	fourx := run1(mkTrace(0, blocks...), DefaultConfig())
	if fourx.Cycles > once.Cycles*2 {
		t.Errorf("4 sweeps took %d vs %d for one; hits should be cheap", fourx.Cycles, once.Cycles)
	}
}

func TestMultiCoreFinishesAllTraces(t *testing.T) {
	rec := trace.NewRecorder(4)
	for c := 0; c < 4; c++ {
		for i := 0; i < 20+10*c; i++ {
			rec.Access(c, memdata.Addr(0x1000+c*0x10000+i*64), i%3 == 0, 4, 7, false)
		}
	}
	cfg := DefaultConfig()
	res := Run(rec, memdata.NewStore(), nil, baselineBuilder(16<<10), cfg)
	if res.Instructions != uint64(rec.Instructions()) {
		t.Errorf("instructions = %d, want %d", res.Instructions, rec.Instructions())
	}
	for c, cy := range res.PerCoreCycles {
		if cy == 0 && len(rec.Cores[c]) > 0 {
			t.Errorf("core %d reported 0 cycles", c)
		}
		if cy > res.Cycles {
			t.Errorf("core %d beyond total", c)
		}
	}
}

func TestStoresApplyValues(t *testing.T) {
	rec := trace.NewRecorder(1)
	rec.Access(0, 0x1000, true, 4, 1234, false)
	st := memdata.NewStore()
	cfg := DefaultConfig()
	cfg.Cores = 1
	var built core.LLC
	res := Run(rec, st, nil, func(s *memdata.Store, ann *approx.Annotations) core.LLC {
		built = core.NewBaseline(cache.Config{Name: "LLC", SizeBytes: 16 << 10, Ways: 4}, s, ann)
		return built
	}, cfg)
	_ = res
	// The value lives in the replay hierarchy's caches; the LLC's snapshot
	// store is a clone, so check via the built LLC's backing after eviction
	// is unnecessary — instead verify traffic happened.
	if res.Totals.MemReads != 1 {
		t.Errorf("write-allocate should read memory once: %d", res.Totals.MemReads)
	}
}

// TestResultDoesNotPinLLC: the sweep memoizes every timing result for the
// life of a regeneration, so a result must not keep its run's LLC
// organization (tag and data arrays, and through them the cloned memory
// image) reachable once RunContext has returned, nor a list of the run's
// LLC evictions in its totals. The run touches more blocks than the LLC
// holds, so it evicts.
func TestResultDoesNotPinLLC(t *testing.T) {
	rec := trace.NewRecorder(2)
	for i := 0; i < 200; i++ {
		rec.Access(i%2, memdata.Addr(0x1000+i*64), i%3 == 0, 4, uint64(i), false)
	}
	cfg := DefaultConfig()
	cfg.Cores = 2
	var collected atomic.Bool
	res, err := RunContext(context.Background(), rec, memdata.NewStore(), nil,
		func(st *memdata.Store, ann *approx.Annotations) core.LLC {
			llc := baselineBuilder(8<<10)(st, ann)
			runtime.SetFinalizer(llc, func(core.LLC) { collected.Store(true) })
			return llc
		}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hier.BackInvals == 0 || len(res.Totals.Evicted) != 0 {
		t.Errorf("%d LLC evictions, %d of them listed in the result's totals; want some, none listed",
			res.Hier.BackInvals, len(res.Totals.Evicted))
	}
	for deadline := time.Now().Add(5 * time.Second); !collected.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("the run's LLC organization is still reachable from its result")
		}
		runtime.GC()
	}
	runtime.KeepAlive(res)
}

func TestDeterministicReplay(t *testing.T) {
	rec := trace.NewRecorder(2)
	for i := 0; i < 200; i++ {
		rec.Access(i%2, memdata.Addr(0x1000+(i*37%64)*64), i%5 == 0, 4, uint64(i), false)
	}
	cfg := DefaultConfig()
	cfg.Cores = 2
	a := Run(rec, memdata.NewStore(), nil, baselineBuilder(8<<10), cfg)
	b := Run(rec, memdata.NewStore(), nil, baselineBuilder(8<<10), cfg)
	if a.Cycles != b.Cycles || a.Totals.MemReads != b.Totals.MemReads ||
		a.Totals.MemWrites != b.Totals.MemWrites || a.Totals.PTagReads != b.Totals.PTagReads {
		t.Error("replay nondeterministic")
	}
}

func TestLLCPortContention(t *testing.T) {
	// Four cores all missing to the LLC: with a single bank, high port
	// occupancy must increase runtime versus free ports.
	rec := trace.NewRecorder(4)
	for c := 0; c < 4; c++ {
		for i := 0; i < 100; i++ {
			rec.Access(c, memdata.Addr(0x100000*(c+1)+i*64), false, 4, 0, false)
		}
	}
	free := DefaultConfig()
	free.LLCPort = 0
	congested := DefaultConfig()
	congested.LLCPort = 20
	a := Run(rec, memdata.NewStore(), nil, baselineBuilder(4<<10), free)
	b := Run(rec, memdata.NewStore(), nil, baselineBuilder(4<<10), congested)
	if b.Cycles <= a.Cycles {
		t.Errorf("port contention had no effect: %d vs %d", b.Cycles, a.Cycles)
	}
}

func TestMPKIAndTraffic(t *testing.T) {
	blocks := make([]int, 100)
	for i := range blocks {
		blocks[i] = i
	}
	res := run1(mkTrace(9, blocks...), DefaultConfig())
	if res.MemTraffic() != 100 {
		t.Errorf("traffic = %d, want 100 cold misses", res.MemTraffic())
	}
	if mpki := res.MPKI(); mpki < 99 || mpki > 101 { // 100 misses / 1000 instr
		t.Errorf("MPKI = %v", mpki)
	}
}

// TestCoreCountMismatch: a recording is timed on exactly the cores it was
// recorded with. Timing a 4-core recording on fewer cores would drop streams
// and on more would run empty ones, so both are errors naming the two
// counts, and nothing is published.
func TestCoreCountMismatch(t *testing.T) {
	rec := trace.NewRecorder(4)
	for i := 0; i < 64; i++ {
		rec.Access(i%4, memdata.Addr(0x1000+i*64), i%3 == 0, 4, uint64(i), false)
	}
	for _, cores := range []int{2, 8} {
		cfg := DefaultConfig()
		cfg.Cores = cores
		cfg.Metrics = metrics.NewRegistry()
		res, err := RunContext(context.Background(), rec, memdata.NewStore(), nil, baselineBuilder(8<<10), cfg)
		if err == nil || res != nil {
			t.Fatalf("cores %d: got result %v, err %v; want an error", cores, res, err)
		}
		for _, want := range []string{"recording has 4 cores", fmt.Sprintf("configuration has %d", cores)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("cores %d: error %q does not say %q", cores, err, want)
			}
		}
		if n := len(cfg.Metrics.Snapshot()); n != 0 {
			t.Errorf("cores %d: a refused run published %d instruments", cores, n)
		}
	}
	cfg := DefaultConfig()
	cfg.Cores = 4
	if _, err := RunContext(context.Background(), rec, memdata.NewStore(), nil, baselineBuilder(8<<10), cfg); err != nil {
		t.Fatalf("matching core count: %v", err)
	}
}

// TestCancelledRunPublishes: a cancelled run returns its context's error and
// still publishes every instrument a completed run does, holding what it
// counted before the cancellation.
func TestCancelledRunPublishes(t *testing.T) {
	rec := trace.NewRecorder(2)
	for i := 0; i < 200; i++ {
		rec.Access(i%2, memdata.Addr(0x1000+i*64), i%3 == 0, 4, uint64(i), false)
	}
	names := func(reg *metrics.Registry) string {
		var b strings.Builder
		for _, s := range reg.Snapshot() {
			fmt.Fprintf(&b, "%s/%s ", s.Kind, s.Name)
		}
		return b.String()
	}
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Metrics = metrics.NewRegistry()
	if _, err := RunContext(context.Background(), rec, memdata.NewStore(), nil, baselineBuilder(8<<10), cfg); err != nil {
		t.Fatal(err)
	}
	done := cfg.Metrics

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Metrics = metrics.NewRegistry()
	if _, err := RunContext(ctx, rec, memdata.NewStore(), nil, baselineBuilder(8<<10), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got, want := names(cfg.Metrics), names(done); got != want {
		t.Errorf("cancelled run published %q, completed run %q", got, want)
	}
}
