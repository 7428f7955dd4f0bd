package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"doppelganger/internal/core"
	"doppelganger/internal/metrics"
	"doppelganger/internal/stats"
	"doppelganger/internal/sweep"
	"doppelganger/internal/timesim"
	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

// cores is the CMP size every sweep cell simulates (the Runner default).
const cores = 4

// grid is the traced run's drive. It calls the layers' public functions
// itself, one cell at a time, with the builders, options and inputs
// sweep.Runner uses for them, and records a span around every call. For
// regen-cold it drives every cell of `experiments all` live (run, below);
// for serve-warm it serves the cells a pass computed from their captures,
// as sweepd's shards serve them (serve, in grid_serve.go).
type grid struct {
	ctx context.Context
	dir string // warm trace directory ("" when cold)
	sp  *spans
	fs  *timedFS

	// totals aggregates every cell's instruments, as the Runner's
	// -metrics-out registry does.
	totals *metrics.Registry

	cells                         int
	liveAccesses, replayAccesses  uint64
	baselineLiveS, baselineAccess float64
	decodeBytes, encodeBytes      int64               // file bytes behind every decode and encode call
	decoded                       *trace.DecodedCache // warm: sweepd's shared cache
	bases                         map[string]*workloads.RunResult
	baseOuts                      map[string][]float64
	errs                          map[string]float64
	timings                       map[string]*timesim.Result
}

// newGrid makes a drive over the warm trace directory dir, or a cold one
// when dir is "". The CLIs run every cell under a cancellable context
// (signals, deadlines), which puts the gang scheduler on its select-based
// handoff; ctx should be one too, so the drive pays what the CLIs pay.
func newGrid(ctx context.Context, dir string) *grid {
	sp := &spans{}
	g := &grid{
		ctx:      ctx,
		dir:      dir,
		sp:       sp,
		fs:       &timedFS{sp: sp, span: "trace.io"},
		totals:   metrics.NewRegistry(),
		bases:    map[string]*workloads.RunResult{},
		baseOuts: map[string][]float64{},
		errs:     map[string]float64{},
		timings:  map[string]*timesim.Result{},
	}
	if dir != "" {
		// sweepd's default decoded-capture cache budget.
		g.decoded = trace.NewDecodedCache(256 << 20)
	}
	return g
}

// accesses is the functional hierarchy's load and store count in reg.
func accesses(reg *metrics.Registry) uint64 {
	return reg.CounterValue("funcsim.loads") + reg.CounterValue("funcsim.stores")
}

// counters lists the drive's counters, as a -metrics-out export's
// totals list them.
func (g *grid) counters() map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range g.totals.Snapshot() {
		if s.Kind == metrics.KindCounter {
			out[s.Name] = s.Value
		}
	}
	return out
}

// analyzer is the baseline's snapshot analyzer, configured as the Runner
// configures it.
func analyzer() *stats.Analyzer {
	return stats.NewAnalyzer(stats.AnalyzerConfig{
		Thresholds:         sweep.Thresholds,
		ThresholdEvery:     8,
		ThresholdSampleCap: 512,
		MapSpaces:          sweep.MapSpaces,
		Comparators:        true,
		CompareM:           14,
	})
}

// observe wraps the analyzer's snapshot hook in a span.
func (g *grid) observe(an *stats.Analyzer, name string) func(core.LLC) {
	return func(llc core.LLC) {
		g.sp.begin(name)
		an.Observe(llc)
		g.sp.end()
	}
}

func (g *grid) timingConfig(reg *metrics.Registry) timesim.Config {
	cfg := timesim.DefaultConfig()
	cfg.Cores = cores
	cfg.Metrics = reg
	return cfg
}

// ident is the capture identity of an unseeded grid cell.
func ident(key string) string {
	return workloads.CaptureIdent(key, scale, cores, "")
}

// baseline runs (cold) or replays (warm) the benchmark's precise baseline
// with the snapshot analyzer attached, then its timing run.
func (g *grid) baseline(name string) error {
	f, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	child := metrics.NewRegistry()
	opt := workloads.RunOptions{
		Cores:         cores,
		Record:        true,
		SnapshotEvery: 20000,
		SnapshotFn:    g.observe(analyzer(), "stats.observe"),
		Metrics:       child,
	}
	llcb := workloads.BaselineBuilder(2<<20, 16)
	var run *workloads.RunResult
	if g.dir == "" {
		err = g.sp.in("funcsim.live", func() error {
			run, err = workloads.RunFunctionalContext(g.ctx, f.New(scale), llcb, opt)
			return err
		})
		g.liveAccesses += accesses(child)
		g.baselineLiveS += g.sp.last().self.Seconds()
		g.baselineAccess += float64(accesses(child))
	} else {
		var c *trace.Capture
		if c, err = g.load(ident("base/" + name)); err != nil {
			return err
		}
		err = g.sp.in("funcsim.replay", func() error {
			run, err = workloads.ReplayFunctionalContext(g.ctx, f.New(scale), c, llcb, opt)
			return err
		})
		g.replayAccesses += accesses(child)
	}
	if err != nil {
		return err
	}
	g.totals.Merge(child)
	g.bases[name] = run
	return g.timing(name, "base/"+name, llcb)
}

// timing replays the baseline's recorded streams against one organization.
func (g *grid) timing(name, key string, llcb workloads.LLCBuilder) error {
	base := g.bases[name]
	child := metrics.NewRegistry()
	var res *timesim.Result
	err := g.sp.in("timesim", func() error {
		var err error
		res, err = timesim.RunContext(g.ctx, base.Recorder, base.InitialMem, base.Annotations, llcb, g.timingConfig(child))
		return err
	})
	if err != nil {
		return fmt.Errorf("%s timing: %w", key, err)
	}
	g.totals.Merge(child)
	g.timings[key] = res
	return nil
}

// errorCell runs one approximate organization's functional run live and
// scores its output against the baseline's.
func (g *grid) errorCell(name, key string, llcb workloads.LLCBuilder) error {
	f, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	child := metrics.NewRegistry()
	var run *workloads.RunResult
	err = g.sp.in("funcsim.live", func() error {
		run, err = workloads.RunFunctionalContext(g.ctx, f.New(scale), llcb, workloads.RunOptions{Cores: cores, Metrics: child})
		return err
	})
	if err != nil {
		return err
	}
	g.liveAccesses += accesses(child)
	g.totals.Merge(child)
	bench := f.New(scale)
	g.sp.begin("sweep.score")
	g.errs[key] = bench.Error(g.bases[name].Output, run.Output)
	g.sp.end()
	return nil
}

// run drives every cell of the cold grid live, in the Runner's order: per
// benchmark the baseline, then each split point and each uniDoppelgänger
// point, error cell before timing cell.
func (g *grid) run() error {
	g.sp.begin("sweep.grid")
	defer g.sp.end()
	for _, f := range workloads.All() {
		name := f.Name
		if err := g.baseline(name); err != nil {
			return err
		}
		g.cells++
		point := func(key string, llcb workloads.LLCBuilder) error {
			if err := g.errorCell(name, key, llcb); err != nil {
				return err
			}
			g.cells += 2
			return g.timing(name, key, llcb)
		}
		for _, p := range splitPoints() {
			if err := point(fmt.Sprintf("split/%s/%d/%g", name, p.m, p.frac), workloads.SplitBuilder(p.m, p.frac)); err != nil {
				return err
			}
		}
		for _, frac := range sweep.UniFracs {
			if err := point(fmt.Sprintf("uni/%s/%d/%g", name, sweep.BaseMapBits, frac), workloads.UnifiedBuilder(sweep.BaseMapBits, frac)); err != nil {
				return err
			}
		}
	}
	return nil
}

type point struct {
	m    int
	frac float64
}

// splitPoints are the split organization's grid points, deduplicated as the
// engine deduplicates them: the map sizes at the base data fraction, then
// the data fractions at the base map size.
func splitPoints() []point {
	var ps []point
	seen := map[point]bool{}
	add := func(p point) {
		if !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	for _, m := range sweep.MapSpaces {
		add(point{m, sweep.BaseDataFrac})
	}
	for _, frac := range sweep.DataFracs {
		add(point{sweep.BaseMapBits, frac})
	}
	return ps
}

// probe measures what the grid's own calls cannot: trace encode and decode
// throughput, and the gang scheduler's share of a live run. For each
// baseline it encodes the run as a capture into dir, decodes it, and
// replays it through a fresh hierarchy with the same options; live minus
// replay of the same recording is the cost of executing the kernels under
// the gang scheduler. None of this is grid work, so it runs after the grid,
// outside its span and through its own filesystem seam.
func (g *grid) probe(dir string) (replayS, replayAccesses float64, err error) {
	fs := &timedFS{sp: g.sp, span: "probe.io"}
	for _, f := range workloads.All() {
		run := g.bases[f.Name]
		id := ident("base/" + f.Name)
		path := workloads.CapturePath(dir, id)
		err = g.sp.in("probe.encode", func() error {
			c, err := workloads.CaptureOf(run, trace.FileHeader{Benchmark: f.Name, Scale: scale, Cores: cores, ConfigKey: id})
			if err != nil {
				return err
			}
			if err := fs.MkdirAll(dir); err != nil {
				return err
			}
			return c.WriteFileFS(fs, path)
		})
		if err != nil {
			return 0, 0, err
		}
		var c *trace.Capture
		err = g.sp.in("probe.decode", func() error {
			c, err = trace.ReadCaptureFileFS(fs, path)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		child := metrics.NewRegistry()
		opt := workloads.RunOptions{
			Cores:         cores,
			SnapshotEvery: 20000,
			SnapshotFn:    g.observe(analyzer(), "probe.observe"),
			Metrics:       child,
		}
		err = g.sp.in("probe.replay", func() error {
			_, err := workloads.ReplayFunctionalContext(g.ctx, f.New(scale), c, workloads.BaselineBuilder(2<<20, 16), opt)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		replayS += g.sp.last().self.Seconds()
		replayAccesses += float64(accesses(child))
	}
	g.encodeBytes += fs.bytesOut
	g.decodeBytes += fs.bytesRead
	return replayS, replayAccesses, nil
}

// render formats the paper's tables from the grid's results through the
// sweep package's own table builders, in `experiments all` order, so the
// traced run's results are checked against the golden tables too. The
// error and timing results reach a fresh Runner through a checkpoint; its
// baselines (which checkpoints do not carry) are recomputed before the
// render span opens.
func (g *grid) render(work string) (string, error) {
	path := filepath.Join(work, "traced.checkpoint")
	cp, err := sweep.OpenCheckpoint(path, false)
	if err != nil {
		return "", err
	}
	for key, v := range g.errs {
		cp.SaveError(key, v)
	}
	for key, res := range g.timings {
		if !strings.HasPrefix(key, "base/") {
			cp.SaveTiming(key, res)
		}
	}
	if err := cp.Close(); err != nil {
		return "", err
	}
	if cp, err = sweep.OpenCheckpoint(path, true); err != nil {
		return "", err
	}
	defer cp.Close()
	r := sweep.NewRunner(scale)
	r.Resume(cp)
	if err := r.PrewarmContext(g.ctx, sweep.Grid{}); err != nil {
		return "", err
	}
	var b strings.Builder
	err = g.sp.in("sweep.render", func() error {
		emit := func(err error, ts ...*sweep.Table) error {
			for _, t := range ts {
				if t != nil {
					b.WriteString(t.Format())
					b.WriteString("\n")
				}
			}
			return err
		}
		t2, err := r.Table2()
		if err := emit(err, t2); err != nil {
			return err
		}
		f2, err := r.Fig2()
		if err := emit(err, f2); err != nil {
			return err
		}
		f7, err := r.Fig7()
		if err := emit(err, f7); err != nil {
			return err
		}
		f8, err := r.Fig8()
		if err := emit(err, f8); err != nil {
			return err
		}
		f9a, f9b, err := r.Fig9()
		if err := emit(err, f9a, f9b); err != nil {
			return err
		}
		f10a, f10b, err := r.Fig10()
		if err := emit(err, f10a, f10b); err != nil {
			return err
		}
		f11a, f11b, err := r.Fig11()
		if err := emit(err, f11a, f11b); err != nil {
			return err
		}
		f12, err := r.Fig12()
		if err := emit(err, f12); err != nil {
			return err
		}
		if err := emit(nil, r.Fig13()); err != nil {
			return err
		}
		f14a, f14b, f14c, err := r.Fig14()
		if err := emit(err, f14a, f14b, f14c); err != nil {
			return err
		}
		return emit(nil, r.Table3())
	})
	return b.String(), err
}
