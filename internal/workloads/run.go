package workloads

import (
	"context"

	"doppelganger/internal/approx"
	"doppelganger/internal/cache"
	"doppelganger/internal/core"
	"doppelganger/internal/faults"
	"doppelganger/internal/funcsim"
	"doppelganger/internal/memdata"
	"doppelganger/internal/metrics"
	"doppelganger/internal/quality"
	"doppelganger/internal/trace"
)

// HierConfig returns the private-cache configuration of the paper's Table 1:
// 16 KB 4-way L1 and 128 KB 8-way L2, per core.
func HierConfig(cores int) funcsim.Config {
	return funcsim.Config{
		Cores: cores,
		L1:    cache.Config{Name: "L1", SizeBytes: 16 << 10, Ways: 4},
		L2:    cache.Config{Name: "L2", SizeBytes: 128 << 10, Ways: 8},
	}
}

// LLCBuilder constructs an LLC organization over a backing store and the
// workload's annotations.
type LLCBuilder func(st *memdata.Store, ann *approx.Annotations) core.LLC

// RunOptions controls a functional run.
type RunOptions struct {
	Cores         int
	Record        bool // record per-core traces
	SnapshotEvery int  // LLC fills between snapshots (0: off)
	SnapshotFn    func(llc core.LLC)

	// Metrics, when non-nil, receives everything the hierarchy (private
	// caches, MSI tracker, LLC organization) counted, published once when
	// the run returns. nil publishes nothing.
	Metrics *metrics.Registry

	// Faults, when non-nil, injects faults into the LLC organization for the
	// duration of the run. nil keeps the zero-cost disabled path.
	Faults *faults.Injector

	// Quality, when non-nil, attaches the online quality guard to the LLC
	// organization (Doppelgänger variants only). nil keeps the zero-cost
	// disabled path.
	Quality *quality.Controller
}

// RunResult is everything a functional run produces.
type RunResult struct {
	Output      []float64
	Store       *memdata.Store
	InitialMem  *memdata.Store // snapshot before execution, for trace replay
	Annotations *approx.Annotations
	Recorder    *trace.Recorder
	Hier        *funcsim.Hierarchy
	LLC         core.LLC

	// Occupancy captured just before the final flush (the flush empties the
	// LLC so dirty data reaches memory for output extraction).
	TagsAtEnd       int
	DataBlocksAtEnd int

	// Doppelgänger-side counters captured pre-flush (nil for baseline
	// organizations); AvgTagsPerData and CompressionRatio likewise.
	DoppelStats      *core.Stats
	AvgTagsPerData   float64
	CompressionRatio float64
}

// RunFunctional executes the benchmark against the LLC organization built
// by llcb and returns the final output plus all recording artifacts. The
// hierarchy is flushed before the output is read so every dirty block
// (including approximated writebacks) reaches memory.
func RunFunctional(b *Benchmark, llcb LLCBuilder, opt RunOptions) *RunResult {
	res, err := RunFunctionalContext(context.Background(), b, llcb, opt)
	if err != nil {
		// Background contexts are never cancelled.
		panic(err)
	}
	return res
}

// RunFunctionalContext is RunFunctional with cooperative cancellation: when
// ctx is cancelled mid-run the kernels unwind promptly and (nil, ctx.Err())
// is returned. With a non-cancellable context the execution path is
// identical to RunFunctional.
func RunFunctionalContext(ctx context.Context, b *Benchmark, llcb LLCBuilder, opt RunOptions) (*RunResult, error) {
	if opt.Cores == 0 {
		opt.Cores = 4
	}
	st := memdata.NewStore()
	ann := b.Init(st, DefaultBase)
	var initial *memdata.Store
	var rec *trace.Recorder
	if opt.Record {
		initial = st.Clone()
		rec = trace.NewRecorder(opt.Cores)
	}
	llc := llcb(st, ann)
	h := funcsim.New(HierConfig(opt.Cores), llc, st, ann, rec)
	// Deferred, so the registry gets what the run counted on every return
	// path: after the final flush, or up to a cancellation.
	defer h.PublishMetrics(opt.Metrics)
	h.AttachFaults(opt.Faults)
	h.AttachQuality(opt.Quality)
	h.SnapshotEvery = opt.SnapshotEvery
	h.SnapshotFn = opt.SnapshotFn
	var groups []int
	if b.Groups != nil {
		groups = b.Groups(opt.Cores)
	}
	if err := funcsim.RunGroupedContext(ctx, h, b.Kernels(opt.Cores), groups); err != nil {
		return nil, err
	}
	// Always take a final pre-flush snapshot so cache-resident workloads
	// (too few fills to trigger the periodic sampler) still get analyzed.
	if opt.SnapshotFn != nil {
		opt.SnapshotFn(llc)
	}
	tags, blocks := llc.TagEntries(), llc.DataBlocks()
	res := &RunResult{}
	var dopp *core.Doppelganger
	switch l := llc.(type) {
	case *core.Split:
		dopp = l.Doppel
	case *core.Doppelganger:
		dopp = l
	}
	if dopp != nil {
		stats := dopp.Stats
		res.DoppelStats = &stats
		res.AvgTagsPerData = dopp.AvgTagsPerData()
		res.CompressionRatio = dopp.CompressionRatio()
	}
	h.Flush()
	res.Output = b.Output(st)
	res.Store = st
	res.InitialMem = initial
	res.Annotations = ann
	res.Recorder = rec
	res.Hier = h
	res.LLC = llc
	res.TagsAtEnd = tags
	res.DataBlocksAtEnd = blocks
	return res, nil
}

// BaselineBuilder returns the conventional LLC of the given size (Table 1
// baseline: 2 MB, 16-way).
func BaselineBuilder(sizeBytes, ways int) LLCBuilder {
	return func(st *memdata.Store, ann *approx.Annotations) core.LLC {
		return core.NewBaseline(cache.Config{Name: "LLC", SizeBytes: sizeBytes, Ways: ways}, st, ann)
	}
}

// SplitBuilder returns the split precise+Doppelgänger organization
// (Table 1): a 1 MB precise cache plus a Doppelgänger cache with 16 K tags
// and dataFrac×16 K data entries at the given map size.
func SplitBuilder(m int, dataFrac float64) LLCBuilder {
	return func(st *memdata.Store, ann *approx.Annotations) core.LLC {
		return core.MustNewSplit(
			cache.Config{Name: "precise", SizeBytes: 1 << 20, Ways: 16},
			doppelCfg("doppel", 16<<10, m, dataFrac),
			st, ann)
	}
}

// CustomSplitBuilder returns the split organization with an explicit
// Doppelgänger configuration (used by the extension experiments: hash
// variants, replacement policies, compressed data arrays).
func CustomSplitBuilder(d core.Config) LLCBuilder {
	return func(st *memdata.Store, ann *approx.Annotations) core.LLC {
		return core.MustNewSplit(
			cache.Config{Name: "precise", SizeBytes: 1 << 20, Ways: 16},
			d, st, ann)
	}
}

// UnifiedBuilder returns the uniDoppelgänger organization (Table 1): 32 K
// tags and dataFrac×32 K data entries.
func UnifiedBuilder(m int, dataFrac float64) LLCBuilder {
	return func(st *memdata.Store, ann *approx.Annotations) core.LLC {
		cfg := doppelCfg("unidoppel", 32<<10, m, dataFrac)
		cfg.Unified = true
		return core.MustNew(cfg, st, ann)
	}
}

// SplitDoppelConfig exposes SplitBuilder's Doppelgänger geometry so callers
// (the sweep server's job validation) can reject impossible (m, dataFrac)
// combinations up front instead of panicking mid-simulation.
func SplitDoppelConfig(m int, dataFrac float64) core.Config {
	return doppelCfg("doppel", 16<<10, m, dataFrac)
}

// UnifiedDoppelConfig is SplitDoppelConfig for UnifiedBuilder's geometry.
func UnifiedDoppelConfig(m int, dataFrac float64) core.Config {
	cfg := doppelCfg("unidoppel", 32<<10, m, dataFrac)
	cfg.Unified = true
	return cfg
}

func doppelCfg(name string, tagEntries, m int, dataFrac float64) core.Config {
	dataEntries := int(float64(tagEntries) * dataFrac)
	return core.Config{
		Name:        name,
		TagEntries:  tagEntries,
		TagWays:     16,
		DataEntries: dataEntries,
		DataWays:    16,
		MapSpec:     approx.MapSpec{M: m},
	}
}
