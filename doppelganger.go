// Package doppelganger is a from-scratch reproduction of the Doppelgänger
// cache — "Doppelgänger: A Cache for Approximate Computing" (San Miguel,
// Albericio, Moshovos, Enright Jerger; MICRO-48, 2015) — as a Go library.
//
// The Doppelgänger cache is a last-level cache for approximate computing
// that decouples its tag and data arrays and associates the tags of
// *approximately similar* blocks (blocks whose average/range hash lands in
// the same map-space bin) with a single data array entry, shrinking the
// data array several-fold with little application-level error.
//
// The package exposes three layers:
//
//   - Cache organizations: NewBaselineLLC, NewDoppelganger (with
//     DoppelgangerConfig / UniDoppelgangerConfig), NewSplitLLC — functional
//     models that plug into the simulators (§3 of the paper).
//   - Annotations: Region / NewAnnotations declare which address ranges are
//     approximable, with element type and expected value range (§4.1).
//   - Simulation: RunBenchmark executes one of the paper's nine workloads
//     against an LLC organization and reports output error; RunTiming
//     replays its traces cycle-accurately (§4).
//
// The cmd/experiments command regenerates every table and figure of the
// evaluation (§5).
//
// See README.md for a walkthrough, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package doppelganger

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"doppelganger/internal/approx"
	"doppelganger/internal/cache"
	"doppelganger/internal/core"
	"doppelganger/internal/energy"
	"doppelganger/internal/faults"
	"doppelganger/internal/memdata"
	"doppelganger/internal/metrics"
	"doppelganger/internal/quality"
	"doppelganger/internal/sweep"
	"doppelganger/internal/timesim"
	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

// Core value types, re-exported from the internal data plane.
type (
	// Addr is a 32-bit physical address.
	Addr = memdata.Addr
	// Block is one 64-byte cache block payload.
	Block = memdata.Block
	// ElemType is the programmer-declared element type of approximate data.
	ElemType = memdata.ElemType
	// Region is one programmer annotation: an approximable address range
	// with element type and expected min/max values.
	Region = approx.Region
	// Annotations is a validated set of Regions.
	Annotations = approx.Annotations
	// MapSpec fixes the size of the Doppelgänger map space (the paper's
	// M-bit design knob).
	MapSpec = approx.MapSpec
	// CacheConfig is the geometry of a conventional set-associative array.
	CacheConfig = cache.Config
	// DoppelConfig is the geometry of a Doppelgänger cache (decoupled tag
	// and data arrays plus map space); set Unified for uniDoppelgänger.
	DoppelConfig = core.Config
	// LLC is any last-level cache organization accepted by the simulators.
	LLC = core.LLC
	// Effects reports the structure-level work of one LLC operation.
	Effects = core.Effects
	// TimingConfig is the cycle-level core/memory model configuration.
	TimingConfig = timesim.Config
	// TimingResult is the outcome of a cycle-level run.
	TimingResult = timesim.Result
	// MetricsRegistry aggregates named counters/gauges/histograms from every
	// instrumented layer; nil disables collection at zero cost.
	MetricsRegistry = metrics.Registry
	// TraceWriter streams Chrome-trace JSON (chrome://tracing format).
	TraceWriter = metrics.TraceWriter
	// FaultInjector draws deterministic, seeded faults against the LLC
	// arrays, the map-generation path and DRAM; nil disables injection at
	// zero cost. Not safe for concurrent use: give each run its own.
	FaultInjector = faults.Injector
	// FaultConfig describes one injector (seed, model, per-access rate).
	FaultConfig = faults.Config
	// FaultModel selects the fault manifestation (bit flip or stuck-at).
	FaultModel = faults.Model
	// QualityController is the online quality guard: it canary-samples
	// approximate substitutions against the precise values, maintains an
	// EWMA error estimate, and circuit-breaks the Doppelgänger map path when
	// the estimate exceeds its budget (approximate loads then degrade
	// gracefully to precise LLC behaviour). nil disables the guard at zero
	// cost. Not safe for concurrent use: give each run its own.
	QualityController = quality.Controller
	// QualityConfig describes one quality guard (seed, error budget, canary
	// sampling rate, and optional EWMA/hysteresis tuning).
	QualityConfig = quality.Config
	// QualityState is the guard's circuit-breaker state (closed, open,
	// half-open).
	QualityState = quality.State
	// QualityTransition is one breaker state change, timestamped by the
	// ordinal of the approximate operation that caused it.
	QualityTransition = quality.Transition
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewFaultInjector builds a fault injector; pass it via RunOptions.Faults.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faults.New(cfg) }

// ParseFaultModel parses a -fault-model flag spelling (flip, stuck0,
// stuck1).
func ParseFaultModel(s string) (FaultModel, error) { return faults.ParseModel(s) }

// DeriveFaultSeed mixes a global seed with a task key into an independent
// per-run injector seed (the determinism contract of the fault sweep).
func DeriveFaultSeed(seed uint64, key string) uint64 { return faults.Derive(seed, key) }

// NewQualityController builds a quality guard; pass it via RunOptions.Quality.
// It returns an error for nonsensical configurations (NaN or non-positive
// budget, canary rate outside [0,1]).
func NewQualityController(cfg QualityConfig) (*QualityController, error) { return quality.New(cfg) }

// DeriveQualitySeed mixes a global seed with a task key into an independent
// per-run canary-sampling seed (the determinism contract of the quality
// sweep; same mixing as DeriveFaultSeed).
func DeriveQualitySeed(seed uint64, key string) uint64 { return faults.Derive(seed, key) }

// NewTraceWriter starts a Chrome-trace stream on w; call Close to terminate
// the JSON envelope.
func NewTraceWriter(w io.Writer) *TraceWriter { return metrics.NewTraceWriter(w) }

// Element types for Region annotations.
const (
	U8  = memdata.U8
	I32 = memdata.I32
	F32 = memdata.F32
	F64 = memdata.F64
)

// BlockSize is the cache block size (64 bytes, Table 1).
const BlockSize = memdata.BlockSize

// NewAnnotations validates and builds an annotation set.
func NewAnnotations(regions ...Region) (*Annotations, error) {
	return approx.NewAnnotations(regions...)
}

// NewStore returns an empty simulated main memory.
func NewStore() *memdata.Store { return memdata.NewStore() }

// Store is the simulated main memory backing an LLC.
type Store = memdata.Store

// --- Table 1 configurations ---

// BaselineLLCConfig is the paper's baseline: 2 MB, 16-way.
func BaselineLLCConfig() CacheConfig {
	return CacheConfig{Name: "baseline LLC", SizeBytes: 2 << 20, Ways: 16}
}

// PreciseCacheConfig is the precise half of the split design: 1 MB, 16-way.
func PreciseCacheConfig() CacheConfig {
	return CacheConfig{Name: "precise cache", SizeBytes: 1 << 20, Ways: 16}
}

// DoppelgangerConfig is the paper's base Doppelgänger: 16 K tags (1 MB
// tag-equivalent), a 256 KB (1/4) data array, both 16-way, 14-bit map.
func DoppelgangerConfig() DoppelConfig { return sweep.SplitConfig(14, 0.25) }

// UniDoppelgangerConfig is the paper's base uniDoppelgänger: 32 K tags
// (2 MB tag-equivalent), a 1 MB (1/2) data array, 14-bit map.
func UniDoppelgangerConfig() DoppelConfig { return sweep.UnifiedConfig(14, 0.5) }

// --- organizations ---

// NewBaselineLLC builds a conventional inclusive LLC over store. ann may be
// nil; it only labels storage-analysis snapshots.
func NewBaselineLLC(cfg CacheConfig, store *Store, ann *Annotations) LLC {
	return core.NewBaseline(cfg, store, ann)
}

// NewDoppelganger builds a Doppelgänger (or, with cfg.Unified,
// uniDoppelgänger) cache over store. Every non-annotated access requires
// cfg.Unified; the split organization routes instead.
func NewDoppelganger(cfg DoppelConfig, store *Store, ann *Annotations) (*core.Doppelganger, error) {
	return core.New(cfg, store, ann)
}

// NewSplitLLC builds the paper's primary organization: a precise
// conventional cache alongside a Doppelgänger cache, with annotation-driven
// routing (§3, §4.1).
func NewSplitLLC(precise CacheConfig, doppel DoppelConfig, store *Store, ann *Annotations) (LLC, error) {
	return core.NewSplit(precise, doppel, store, ann)
}

// --- workloads and simulation ---

// Benchmarks lists the nine-workload suite in the paper's order.
func Benchmarks() []string {
	fs := workloads.All()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

// DoppelStats are the Doppelgänger cache's event counters (reuse links,
// silent writes, remaps, evictions, map generations, ...).
type DoppelStats = core.Stats

// BenchmarkResult reports one functional benchmark run.
type BenchmarkResult struct {
	// Output is the application's final output vector.
	Output []float64
	// Error is the application output error versus a precise run of the
	// same benchmark (the paper's metric, §4.1); 0 for precise LLCs.
	Error float64
	// LLCTags and LLCDataBlocks are end-of-run occupancies.
	LLCTags, LLCDataBlocks int
	// Stats holds the Doppelgänger-side counters (nil for Baseline runs);
	// AvgTagsPerData is the paper's §3.5 sharing statistic.
	Stats          *DoppelStats
	AvgTagsPerData float64
}

// LLCKind selects an organization for RunBenchmark.
type LLCKind int

// The three LLC organizations of the evaluation.
const (
	Baseline LLCKind = iota
	SplitDoppelganger
	UniDoppelganger
)

// RunOptions configures RunBenchmark.
type RunOptions struct {
	// Scale sizes the workload (1 = the paper-scale working sets; small
	// values run quickly). Default 1.
	Scale float64
	// MapBits is the map space size M (default 14).
	MapBits int
	// DataFrac is the approximate data array size as a fraction of the tag
	// capacity (split) or of the baseline LLC (unified). Default 1/4 split,
	// 1/2 unified.
	DataFrac float64
	// Cores is the CMP size (default 4).
	Cores int

	// Metrics, when non-nil, attaches the simulation under measurement (the
	// chosen organization, not the precise reference run) to the registry.
	Metrics *MetricsRegistry
	// Trace, when non-nil, streams Chrome-trace events from the timing
	// replays (RunTiming): the chosen organization on process lane 1, the
	// baseline reference on lane 2.
	Trace *TraceWriter
	// Faults, when non-nil, injects faults into the simulation under
	// measurement only — never the precise reference run, which stays the
	// fault-free ground truth the error metric compares against.
	Faults *FaultInjector
	// Quality, when non-nil, attaches the online quality guard to the
	// simulation under measurement only (it is a no-op on the Baseline
	// organization, which never approximates).
	Quality *QualityController

	// TraceDir, when non-empty, enables the persistent trace cache: each
	// distinct (benchmark, organization, scale, cores) simulation records a
	// capture file there on its first run and is replayed from it afterwards
	// without executing any kernel. Runs with Faults or Quality attached are
	// exempt from routing (their injector identity is not knowable here) and
	// always execute live; the precise reference run is always eligible.
	// TraceReplay forbids kernel execution, failing eligible runs that have
	// no valid capture; it requires TraceDir.
	TraceDir    string
	TraceReplay bool
}

func (o *RunOptions) defaults(kind LLCKind) {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.MapBits == 0 {
		o.MapBits = 14
	}
	if o.DataFrac == 0 {
		if kind == UniDoppelganger {
			o.DataFrac = 0.5
		} else {
			o.DataFrac = 0.25
		}
	}
	if o.Cores == 0 {
		o.Cores = 4
	}
}

// cellKey names the sweep-compatible cell a facade run corresponds to, so
// doppelsim and an experiments sweep over the same trace directory share
// capture files.
func cellKey(name string, kind LLCKind, opt *RunOptions) string {
	switch kind {
	case SplitDoppelganger:
		return fmt.Sprintf("split/%s/%d/%g", name, opt.MapBits, opt.DataFrac)
	case UniDoppelganger:
		return fmt.Sprintf("uni/%s/%d/%g", name, opt.MapBits, opt.DataFrac)
	}
	return "base/" + name
}

// runCell sends one facade simulation through the trace-cache gateway (see
// workloads.CaptureGateway) under its sweep-compatible cell key: live
// without a trace directory, and with one, replay of a valid capture or a
// live run that records one. Recoveries from storage faults count on
// o.Metrics under trace.*, matching the sweep runner's instrumentation.
func (o *RunOptions) runCell(ctx context.Context, name, key string, b *workloads.Benchmark,
	llcb workloads.LLCBuilder, ropt workloads.RunOptions) (*workloads.RunResult, error) {
	g := workloads.CaptureGateway{Dir: o.TraceDir, Replay: o.TraceReplay, Metrics: o.Metrics}
	return g.Run(ctx, workloads.CaptureCell{Key: key, Header: trace.FileHeader{
		Benchmark: name, Scale: o.Scale, Cores: o.Cores, ConfigKey: workloads.CaptureIdent(key, o.Scale, o.Cores, ""),
	}}, b, llcb, ropt)
}

// RunBenchmark executes the named workload functionally against the chosen
// LLC organization and measures application output error against a precise
// baseline run (the paper's Pin-style methodology, §4).
func RunBenchmark(name string, kind LLCKind, opt RunOptions) (*BenchmarkResult, error) {
	return RunBenchmarkContext(context.Background(), name, kind, opt)
}

// RunBenchmarkContext is RunBenchmark under a cancellable context: a cancel
// or deadline aborts both simulations at their next scheduling point and
// returns ctx's error.
func RunBenchmarkContext(ctx context.Context, name string, kind LLCKind, opt RunOptions) (*BenchmarkResult, error) {
	opt.defaults(kind)
	f, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	builder := workloads.BaselineBuilder(2<<20, 16)
	switch kind {
	case SplitDoppelganger:
		builder = workloads.SplitBuilder(opt.MapBits, opt.DataFrac)
	case UniDoppelganger:
		builder = workloads.UnifiedBuilder(opt.MapBits, opt.DataFrac)
	}
	// The approximate run and the precise reference run are independent
	// simulations (each owns its benchmark instance and store), so they can
	// execute concurrently without affecting results. The fault injector (a
	// serial structure) attaches only to the run under measurement.
	var run, precise *workloads.RunResult
	var preciseErr error
	var wg sync.WaitGroup
	if kind != Baseline {
		wg.Add(1)
		go func() {
			defer wg.Done()
			precise, preciseErr = opt.runCell(ctx, name, "base/"+name, f.New(opt.Scale),
				workloads.BaselineBuilder(2<<20, 16), workloads.RunOptions{Cores: opt.Cores})
		}()
	}
	mopt := workloads.RunOptions{Cores: opt.Cores, Metrics: opt.Metrics, Faults: opt.Faults, Quality: opt.Quality}
	if opt.Faults != nil || opt.Quality != nil {
		// The injector/guard identity is not part of the capture key at this
		// layer, so a faulted or guarded measurement always runs live.
		run, err = workloads.RunFunctionalContext(ctx, f.New(opt.Scale), builder, mopt)
	} else {
		run, err = opt.runCell(ctx, name, cellKey(name, kind, &opt), f.New(opt.Scale), builder, mopt)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if preciseErr != nil {
		return nil, preciseErr
	}
	res := &BenchmarkResult{
		Output:         run.Output,
		LLCTags:        run.TagsAtEnd,
		LLCDataBlocks:  run.DataBlocksAtEnd,
		Stats:          run.DoppelStats,
		AvgTagsPerData: run.AvgTagsPerData,
	}
	if precise != nil {
		res.Error = f.New(opt.Scale).Error(precise.Output, run.Output)
	}
	return res, nil
}

// RunMultiprogram runs several benchmarks side by side on the CMP — each
// program in its own physical-address slice with its own annotations (the
// paper's per-application range registers, §4.1) and its own share of the
// cores. The result's Error averages the per-program errors under each
// program's own metric.
func RunMultiprogram(names []string, kind LLCKind, opt RunOptions) (*BenchmarkResult, error) {
	opt.defaults(kind)
	build := func() (*workloads.Benchmark, error) {
		progs := make([]*workloads.Benchmark, len(names))
		for i, n := range names {
			f, err := workloads.ByName(n)
			if err != nil {
				return nil, err
			}
			progs[i] = f.New(opt.Scale)
		}
		return workloads.Multiprogram(progs...), nil
	}
	mp, err := build()
	if err != nil {
		return nil, err
	}
	builder := workloads.BaselineBuilder(2<<20, 16)
	switch kind {
	case SplitDoppelganger:
		builder = workloads.SplitBuilder(opt.MapBits, opt.DataFrac)
	case UniDoppelganger:
		builder = workloads.UnifiedBuilder(opt.MapBits, opt.DataFrac)
	}
	mpName := strings.Join(names, "+")
	ctx := context.Background()
	var precise, run *workloads.RunResult
	var preciseErr, runErr error
	var wg sync.WaitGroup
	if kind != Baseline {
		// A multiprogram Benchmark carries mutable captured state, so the
		// reference run gets its own instance.
		ref, err := build()
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			precise, preciseErr = opt.runCell(ctx, mpName, "mp/base/"+mpName, ref,
				workloads.BaselineBuilder(2<<20, 16), workloads.RunOptions{Cores: opt.Cores})
		}()
	}
	// Error scoring must use the measured run's instance: a multiprogram
	// Benchmark learns its per-program output lengths in its Output pass.
	mopt := workloads.RunOptions{Cores: opt.Cores, Metrics: opt.Metrics, Faults: opt.Faults, Quality: opt.Quality}
	if opt.Faults != nil || opt.Quality != nil {
		run, runErr = workloads.RunFunctionalContext(ctx, mp, builder, mopt)
	} else {
		run, runErr = opt.runCell(ctx, mpName, "mp/"+cellKey(mpName, kind, &opt), mp, builder, mopt)
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	if preciseErr != nil {
		return nil, preciseErr
	}
	res := &BenchmarkResult{
		Output:         run.Output,
		LLCTags:        run.TagsAtEnd,
		LLCDataBlocks:  run.DataBlocksAtEnd,
		Stats:          run.DoppelStats,
		AvgTagsPerData: run.AvgTagsPerData,
	}
	if precise != nil {
		res.Error = mp.Error(precise.Output, run.Output)
	}
	return res, nil
}

// DefaultTimingConfig is the paper's Table 1 system: 4 cores, 4-wide,
// 80-entry ROB, 1/3/6-cycle cache levels, 160-cycle DRAM.
func DefaultTimingConfig() TimingConfig { return timesim.DefaultConfig() }

// TimingComparison reports one benchmark's cycle-level behaviour under an
// approximate LLC organization next to the baseline (the paper's Figs.
// 9b/10b/12 per-benchmark data points).
type TimingComparison struct {
	BaselineCycles uint64
	Cycles         uint64
	// NormalizedRuntime is Cycles / BaselineCycles (1.0 = no slowdown).
	NormalizedRuntime float64
	// MPKI is the organization's LLC misses per thousand instructions.
	MPKI float64
	// NormalizedTraffic is off-chip traffic relative to the baseline.
	NormalizedTraffic float64
}

// RunTiming records the named benchmark's traces on a precise baseline run
// and replays them cycle-accurately against both the baseline LLC and the
// chosen organization (the paper's §4 methodology).
func RunTiming(name string, kind LLCKind, opt RunOptions) (*TimingComparison, error) {
	opt.defaults(kind)
	f, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	run, err := opt.runCell(context.Background(), name, "base/"+name, f.New(opt.Scale),
		workloads.BaselineBuilder(2<<20, 16), workloads.RunOptions{Cores: opt.Cores, Record: true})
	if err != nil {
		return nil, err
	}
	cfg := timesim.DefaultConfig()
	cfg.Cores = opt.Cores
	builder := workloads.BaselineBuilder(2<<20, 16)
	switch kind {
	case SplitDoppelganger:
		builder = workloads.SplitBuilder(opt.MapBits, opt.DataFrac)
	case UniDoppelganger:
		builder = workloads.UnifiedBuilder(opt.MapBits, opt.DataFrac)
	}
	// The chosen organization's replay carries the observability hooks and
	// the fault injector; the baseline reference gets its own trace lane but
	// no registry and no faults (so counter totals describe exactly one
	// simulation and the reference stays fault-free).
	selCfg, baseCfg := cfg, cfg
	selCfg.Metrics = opt.Metrics
	selCfg.Faults = opt.Faults
	selCfg.Quality = opt.Quality
	if opt.Trace != nil {
		selCfg.Trace, selCfg.TracePID, selCfg.TraceLabel = opt.Trace, 1, name+" (chosen org)"
		baseCfg.Trace, baseCfg.TracePID, baseCfg.TraceLabel = opt.Trace, 2, name+" (baseline)"
	}
	// The two replays read the recorded traces and clone the initial memory
	// image independently, so they run concurrently.
	var base *TimingResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		base = timesim.Run(run.Recorder, run.InitialMem, run.Annotations,
			workloads.BaselineBuilder(2<<20, 16), baseCfg)
	}()
	res := timesim.Run(run.Recorder, run.InitialMem, run.Annotations, builder, selCfg)
	wg.Wait()
	return &TimingComparison{
		BaselineCycles:    base.Cycles,
		Cycles:            res.Cycles,
		NormalizedRuntime: float64(res.Cycles) / float64(base.Cycles),
		MPKI:              res.MPKI(),
		NormalizedTraffic: float64(res.MemTraffic()) / float64(base.MemTraffic()),
	}, nil
}

// --- hardware cost model ---

// HardwareOrg is an LLC organization's silicon cost model (area, leakage,
// per-access energies), calibrated to the paper's Table 3.
type HardwareOrg = energy.Org

// BaselineHardware models the baseline 2 MB LLC.
func BaselineHardware() HardwareOrg { return energy.BaselineOrg(2<<20, 16, 4) }

// SplitHardware models precise + Doppelgänger for a map size and data
// fraction.
func SplitHardware(mapBits int, dataFrac float64) HardwareOrg {
	return energy.SplitOrg(1<<20, 16, sweep.SplitConfig(mapBits, dataFrac), 4)
}

// UnifiedHardware models uniDoppelgänger for a data fraction of the
// baseline LLC.
func UnifiedHardware(mapBits int, dataFrac float64) HardwareOrg {
	return energy.UnifiedOrg(sweep.UnifiedConfig(mapBits, dataFrac), 4)
}

// --- trace store ---

// TraceStore is an opened, locked, scrubbed trace directory (see
// OpenTraceStore); TraceScrubReport is what its startup janitor did.
type (
	TraceStore       = trace.Store
	TraceScrubReport = trace.ScrubReport
)

// OpenTraceStore prepares a trace directory for use: creates it, takes the
// advisory cross-process lock, and — when this process is alone in the
// directory — scrubs it (sweeping orphaned temp files and, per the verify
// mode "off", "open" or "full", checking each capture's integrity and
// quarantining the condemned) before settling into the long-lived shared
// lock. Callers should hold the store for the life of the process and
// Close it on the way out. Opening the store is recommended hygiene before
// any run that uses a trace dir, and what the -trace-verify flag does in
// the bundled binaries.
func OpenTraceStore(dir, verify string) (*TraceStore, error) {
	mode, err := trace.ParseVerifyMode(verify)
	if err != nil {
		return nil, err
	}
	return trace.OpenStore(trace.OS, dir, mode)
}
