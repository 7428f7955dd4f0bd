package sweep

import (
	"context"
	"fmt"
	"io"
	"sync"

	"doppelganger/internal/approx"
	"doppelganger/internal/core"
	"doppelganger/internal/faults"
	"doppelganger/internal/memdata"
	"doppelganger/internal/metrics"
	"doppelganger/internal/quality"
	"doppelganger/internal/singleflight"
	"doppelganger/internal/stats"
	"doppelganger/internal/timesim"
	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

// Runner executes and memoizes the simulations the experiments share: per
// benchmark, one precise baseline run (which also records traces and feeds
// the snapshot analyzer), one baseline timing run, and on-demand
// approximate functional/timing runs per configuration.
//
// A Runner is safe for concurrent use: the memo caches are singleflight, so
// concurrent Runs of one Cell (and the typed accessors the table builders
// call) trigger exactly one simulation per key, and log lines are
// serialized. Prewarm fans the whole experiment grid out over a worker
// pool; the table builders then render from warm caches in deterministic
// benchmark order.
type Runner struct {
	// Scale sizes the workloads (1 = the evaluation size; tests use less).
	Scale float64
	// Cores is the CMP size (Table 1: 4).
	Cores int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Only, when non-empty, restricts the suite to the named benchmarks
	// (tests and quick looks).
	Only []string
	// Workers bounds the engine's concurrent simulations during Prewarm
	// (0 means GOMAXPROCS). Results are identical for every worker count.
	Workers int

	// FaultRates are the per-access fault probabilities the fault-sweep
	// experiment evaluates (nil: DefaultFaultRates).
	FaultRates []float64
	// FaultSeed seeds fault-site generation; every task derives an
	// independent stream from (FaultSeed, task key), so results are
	// identical for every worker count.
	FaultSeed uint64
	// FaultModel selects the fault manifestation (default bit flips).
	FaultModel faults.Model

	// QualityBudget is the error budget the quality-sweep guard enforces
	// (0: DefaultQualityBudget). QualitySeed seeds the canary sample sites
	// per task, and CanaryRate is the closed-state sampling fraction
	// (0: DefaultCanaryRate).
	QualityBudget float64
	QualitySeed   uint64
	CanaryRate    float64

	// Checkpoint, when non-nil, persists every completed error/timing result
	// and skips already-persisted keys after Resume. nil disables.
	Checkpoint *Checkpoint

	// TraceDir, when non-empty, enables the persistent trace cache: every
	// functional cell records a capture file there on its first live run and
	// is replayed from it on later sweeps (see tracecache.go). TraceReplay
	// forbids kernel execution, failing any cell without a valid capture.
	TraceDir    string
	TraceReplay bool
	// TraceFS, when non-nil, replaces the real filesystem under the trace
	// cache — the fault-injection seam chaos tests drive. nil means the OS.
	TraceFS trace.FS

	// Metrics, when non-nil, aggregates instrument totals across every
	// simulation the runner performs. nil disables all metric collection at
	// zero cost.
	Metrics *metrics.Registry
	// TaskMetrics, with Metrics set, also keeps a labeled snapshot of every
	// memoized task's instruments for WriteMetricsJSONL, for the life of the
	// runner. Without it only the aggregate is kept.
	TaskMetrics bool
	// Trace, when non-nil, receives Chrome-trace events from every timing
	// run, each on its own process lane labeled with the task key.
	Trace *metrics.TraceWriter

	logMu sync.Mutex

	metricsMu sync.Mutex
	taskSnaps []TaskMetrics
	tracePIDs int

	base         *singleflight.Memo[*baseArtifacts]
	baseOut      *singleflight.Memo[*baseScore]
	errCache     *singleflight.Memo[float64]
	timeCache    *singleflight.Memo[*timesim.Result]
	qualityCache *singleflight.Memo[*QualityOutcome]
}

// baseScore is the slice of the baseline artifacts every error cell scores
// against: the benchmark instance (for its Error metric) and the precise
// output vector.
type baseScore struct {
	bench *workloads.Benchmark
	out   []float64
}

// baseArtifacts is what a benchmark's baseline task leaves behind for the
// cells that depend on it: the precise output every error cell scores
// against, the recording (traces, initial memory image and annotations)
// every timing cell replays, the snapshot analysis, and the baseline timing
// result. The baseline run's hierarchy, LLC and final store are not kept;
// no cell reads them.
type baseArtifacts struct {
	bench       *workloads.Benchmark // for the Error metric
	output      []float64
	recorder    *trace.Recorder
	initialMem  *memdata.Store
	annotations *approx.Annotations
	analyzer    *stats.Analyzer
	timing      *timesim.Result
}

// replay runs the baseline recording through the timing model against the
// LLC organization llcb builds.
func (a *baseArtifacts) replay(ctx context.Context, llcb workloads.LLCBuilder, cfg timesim.Config) (*timesim.Result, error) {
	return timesim.RunContext(ctx, a.recorder, a.initialMem, a.annotations, llcb, cfg)
}

// snapshotEvery is how many LLC fills the baseline run makes between two
// snapshots of the LLC's contents.
const snapshotEvery = 20000

// NewRunner builds a Runner at the given workload scale.
func NewRunner(scale float64) *Runner {
	return &Runner{
		Scale:        scale,
		Cores:        4,
		base:         singleflight.New[*baseArtifacts](),
		baseOut:      singleflight.New[*baseScore](),
		errCache:     singleflight.New[float64](),
		timeCache:    singleflight.New[*timesim.Result](),
		qualityCache: singleflight.New[*QualityOutcome](),
	}
}

// logf emits one whole progress line under the log mutex, so lines from
// concurrent workers never interleave.
func (r *Runner) logf(format string, args ...interface{}) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.Log, format+"\n", args...)
}

// Thresholds are the Fig. 2 similarity thresholds (fractions of the value
// range): 0%, 0.01%, 0.1%, 1%, 10%.
var Thresholds = []float64{0, 0.0001, 0.001, 0.01, 0.1}

// MapSpaces are the Fig. 7/9 map sizes.
var MapSpaces = []int{12, 13, 14}

// DataFracs are the Fig. 10–12 approximate data array sizes relative to the
// tag array.
var DataFracs = []float64{0.5, 0.25, 0.125}

// UniFracs are the Fig. 13/14 uniDoppelgänger data array sizes relative to
// the baseline LLC.
var UniFracs = []float64{0.75, 0.5, 0.25}

// The paper's base configuration: a 14-bit map space and a data array 1/4
// the size of the tag array (Table 1).
const (
	BaseMapBits  = 14
	BaseDataFrac = 0.25
)

// Benchmarks lists the suite names in paper order (restricted by Only).
func (r *Runner) Benchmarks() []string {
	if len(r.Only) > 0 {
		return r.Only
	}
	fs := workloads.All()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

// Baseline returns (running once) the precise baseline artifacts for a
// benchmark: functional run with traces and snapshot analysis, plus the
// baseline timing result. Unknown benchmark names return an error rather
// than panicking, so a bad -only flag surfaces through the engine.
func (r *Runner) Baseline(name string) (*baseArtifacts, error) {
	return r.BaselineContext(context.Background(), name)
}

// BaselineContext is Baseline under a cancellable context: a cancellation
// or deadline aborts the simulations promptly, the error is delivered to
// every waiter, and the key is forgotten so a retry recomputes it.
func (r *Runner) BaselineContext(ctx context.Context, name string) (*baseArtifacts, error) {
	return r.base.Do(name, func() (*baseArtifacts, error) {
		f, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		r.logf("[%s] baseline functional run (scale %.2f)", name, r.Scale)
		an := stats.NewAnalyzer(stats.AnalyzerConfig{
			Thresholds:         Thresholds,
			ThresholdEvery:     8,
			ThresholdSampleCap: 512,
			MapSpaces:          MapSpaces,
			Comparators:        true,
			CompareM:           14,
		})
		child := r.instrument()
		llcb := workloads.BaselineBuilder(2<<20, 16)
		run, err := r.funcRun(ctx, Cell{Kind: "baseline-timing", Bench: name}, llcb, workloads.RunOptions{
			Cores:         r.Cores,
			Record:        true,
			SnapshotEvery: snapshotEvery,
			SnapshotFn:    an.Observe,
			Metrics:       child,
		}, false)
		if err != nil {
			return nil, err
		}
		r.collect("base/"+name+"/func", child)
		r.logf("[%s] baseline timing run (%d accesses)", name, run.Recorder.Len())
		tkey := "base/" + name + "/timing"
		tchild := r.instrument()
		a := &baseArtifacts{
			bench:       f.New(r.Scale),
			output:      run.Output,
			recorder:    run.Recorder,
			initialMem:  run.InitialMem,
			annotations: run.Annotations,
			analyzer:    an,
		}
		if a.timing, err = a.replay(ctx, llcb, r.timesimConfigFor(tkey, tchild)); err != nil {
			return nil, err
		}
		r.collect(tkey, tchild)
		return a, nil
	})
}

// baselineScore returns the benchmark instance and precise baseline output
// an error cell scores against. Over a trace directory, until this Runner
// has built (or started building) the benchmark's baseline, the output is
// read from the baseline's own capture with the output-only decode: the
// replay goldens prove the recorded output is bit-identical to the live
// run's, so the full baseline replay (hierarchy rebuild, snapshot analysis,
// timing simulation) is skipped for a cell that arrives before its
// benchmark's timing cells. Any miss (cold directory, quarantined or
// unreadable capture) falls back to the complete baseline artifacts.
func (r *Runner) baselineScore(ctx context.Context, name string) (*baseScore, error) {
	if r.TraceDir == "" {
		a, err := r.BaselineContext(ctx, name)
		if err != nil {
			return nil, err
		}
		return &baseScore{bench: a.bench, out: a.output}, nil
	}
	return r.baseOut.Do(name, func() (*baseScore, error) {
		f, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		// Someone already paid for (or is computing) the full artifacts in
		// this Runner; share them instead of reading the capture again.
		if !r.base.Has(name) {
			ident, _ := r.captureIdent(Cell{Kind: "baseline-timing", Bench: name})
			if out := r.traceGateway().LoadOutput(ident, r.Cores); out != nil {
				return &baseScore{bench: f.New(r.Scale), out: out}, nil
			}
		}
		a, err := r.BaselineContext(ctx, name)
		if err != nil {
			return nil, err
		}
		return &baseScore{bench: a.bench, out: a.output}, nil
	})
}

func (r *Runner) timesimConfig() timesim.Config {
	cfg := timesim.DefaultConfig()
	cfg.Cores = r.Cores
	return cfg
}

// timesimConfigFor is timesimConfig plus the observability hooks for one
// labeled timing task: its child registry and, when tracing, a fresh process
// lane in the shared Chrome trace.
func (r *Runner) timesimConfigFor(label string, reg *metrics.Registry) timesim.Config {
	cfg := r.timesimConfig()
	cfg.Metrics = reg
	if r.Trace != nil {
		cfg.Trace = r.Trace
		cfg.TracePID = r.nextTracePID()
		cfg.TraceLabel = label
	}
	return cfg
}

// SplitError measures application output error for the split organization
// with map size m and data fraction frac (Figs. 9a, 10a).
func (r *Runner) SplitError(name string, m int, frac float64) (float64, error) {
	return r.cellError(context.Background(), Cell{Kind: "split-error", Bench: name, M: m, Frac: frac})
}

// UnifiedError is SplitError for the uniDoppelgänger organization
// (Fig. 14a); frac is relative to the baseline LLC capacity.
func (r *Runner) UnifiedError(name string, m int, frac float64) (float64, error) {
	return r.cellError(context.Background(), Cell{Kind: "uni-error", Bench: name, M: m, Frac: frac})
}

// SplitTiming replays the benchmark's traces against the split organization
// (Figs. 9b, 10b, 11, 12).
func (r *Runner) SplitTiming(name string, m int, frac float64) (*timesim.Result, error) {
	return r.cellTiming(context.Background(), Cell{Kind: "split-timing", Bench: name, M: m, Frac: frac})
}

// UnifiedTiming replays against uniDoppelgänger (Fig. 14b/c); frac is
// relative to the baseline LLC capacity.
func (r *Runner) UnifiedTiming(name string, m int, frac float64) (*timesim.Result, error) {
	return r.cellTiming(context.Background(), Cell{Kind: "uni-timing", Bench: name, M: m, Frac: frac})
}

// cellError is the functional-error path every -error cell but
// quality-error takes: the cell's functional run, scored against the
// precise baseline output.
func (r *Runner) cellError(ctx context.Context, c Cell) (float64, error) {
	key := c.memoKey()
	v, err := r.errCache.Do(key, func() (float64, error) {
		v, _, err := r.functional(ctx, c)
		return v, err
	})
	if err == nil && r.Checkpoint != nil {
		r.Checkpoint.SaveError(key, v)
	}
	return v, err
}

// functional runs the cell's functional simulation through the capture
// gateway, with its fault injector and quality guard attached, and returns
// its output error against the precise baseline output and the guard (nil
// for an unguarded cell). An unguarded cell reads only the run's output,
// so a warm trace directory serves it from its capture without rebuilding
// a hierarchy.
func (r *Runner) functional(ctx context.Context, c Cell) (float64, *quality.Controller, error) {
	llcb, err := c.builder()
	if err != nil {
		return 0, nil, err
	}
	a, err := r.baselineScore(ctx, c.Bench)
	if err != nil {
		return 0, nil, err
	}
	r.logf("[%s] functional run %s", c.Bench, c.Key())
	child := r.instrument()
	opt := workloads.RunOptions{Cores: r.Cores, Metrics: child}
	if opt.Faults, opt.Quality, err = r.attach(c, child); err != nil {
		return 0, nil, err
	}
	run, err := r.funcRun(ctx, c, llcb, opt, opt.Quality == nil)
	if err != nil {
		return 0, nil, err
	}
	r.collect(c.memoKey()+"/func", child)
	return a.bench.Error(a.out, run.Output), opt.Quality, nil
}

// cellTiming is the timing-replay path every -timing cell but the
// baseline's takes: the baseline's recording replayed through the timing
// model against the cell's organization, with a quality-timing cell's
// injector and guard attached.
func (r *Runner) cellTiming(ctx context.Context, c Cell) (*timesim.Result, error) {
	key := c.memoKey()
	res, err := r.timeCache.Do(key, func() (*timesim.Result, error) {
		llcb, err := c.builder()
		if err != nil {
			return nil, err
		}
		a, err := r.BaselineContext(ctx, c.Bench)
		if err != nil {
			return nil, err
		}
		r.logf("[%s] timing run %s", c.Bench, c.Key())
		child := r.instrument()
		cfg := r.timesimConfigFor(key+"/timing", child)
		if cfg.Faults, cfg.Quality, err = r.attach(c, child); err != nil {
			return nil, err
		}
		res, err := a.replay(ctx, llcb, cfg)
		if err != nil {
			return nil, err
		}
		r.collect(key+"/timing", child)
		return res, nil
	})
	if err == nil && r.Checkpoint != nil {
		r.Checkpoint.SaveTiming(key, res)
	}
	return res, err
}

// attach builds one run's fault injector (fault and quality kinds) and
// quality guard (guarded kinds), both counting into child. Each is seeded
// from the Runner's seed and a string spelled from the cell alone, so
// fault and canary sites are bit-identical at any worker count.
func (r *Runner) attach(c Cell, child *metrics.Registry) (*faults.Injector, *quality.Controller, error) {
	var inj *faults.Injector
	if c.faulted() {
		inj = faults.New(faults.Config{Seed: r.faultSeed(c), Model: r.FaultModel, Rate: c.Rate})
		inj.AttachMetrics(child)
	}
	if !c.guarded() {
		return inj, nil, nil
	}
	qc, err := quality.New(quality.Config{
		Seed:       faults.Derive(r.QualitySeed, c.memoKey()),
		Budget:     r.qualityBudget(),
		CanaryRate: r.canaryRate(),
	})
	if err != nil {
		return nil, nil, err
	}
	qc.AttachMetrics(child)
	return inj, qc, nil
}

// faultSeed is the seed of the cell's fault injector (0 for a cell that
// injects none).
func (r *Runner) faultSeed(c Cell) uint64 {
	if !c.faulted() {
		return 0
	}
	return faults.Derive(r.FaultSeed, c.faultKey())
}

// SplitConfig returns the Doppelgänger core.Config the split organization
// uses for map size m and data fraction frac of the 16 K-entry tag array
// (for the energy model and Table 3).
func SplitConfig(m int, frac float64) core.Config {
	return core.Config{
		Name:        "doppelganger",
		TagEntries:  16 << 10,
		TagWays:     16,
		DataEntries: int(float64(16<<10) * frac),
		DataWays:    16,
		MapSpec:     approx.MapSpec{M: m},
	}
}

// UnifiedConfig returns the uniDoppelgänger core.Config; frac is relative
// to the 2 MB baseline, so the data array holds frac×32 K entries (the
// paper's 1/2 configuration is the Table 1 default: 1 MB).
func UnifiedConfig(m int, frac float64) core.Config {
	return core.Config{
		Name:        "unidoppelganger",
		TagEntries:  32 << 10,
		TagWays:     16,
		DataEntries: int(float64(32<<10) * frac),
		DataWays:    16,
		MapSpec:     approx.MapSpec{M: m},
		Unified:     true,
	}
}
