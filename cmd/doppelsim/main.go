// Command doppelsim runs one benchmark against one LLC organization and
// prints its functional statistics and output error.
//
// Usage:
//
//	doppelsim -bench jpeg -llc split -map 14 -datafrac 0.25 -scale 0.5
//	doppelsim -bench jmeint+kmeans -llc unified          # multiprogrammed
//	doppelsim -bench canneal -savetrace canneal.dgt      # record a capture
//	doppelsim -replay canneal.dgt -llc split -map 12     # replay offline
//	doppelsim -bench jpeg -fault-rate 1e-4 -quality-budget 0.05   # guarded
//
// LLC organizations: baseline (conventional 2 MB), split (1 MB precise +
// Doppelgänger, the paper's primary design), unified (uniDoppelgänger).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"sync"

	"doppelganger"
	"doppelganger/internal/faults"
	"doppelganger/internal/timesim"
	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func main() {
	var (
		bench    = flag.String("bench", "jpeg", "benchmark (join with + to multiprogram): "+strings.Join(doppelganger.Benchmarks(), ", "))
		llc      = flag.String("llc", "split", "LLC organization: baseline, split, unified")
		mapBits  = flag.Int("map", 14, "map space size M in bits")
		dataFrac = flag.Float64("datafrac", 0, "data array fraction (default: 1/4 split, 1/2 unified)")
		scale    = flag.Float64("scale", 1, "workload scale (1 = paper-size working sets)")
		cores    = flag.Int("cores", 4, "number of cores")
		timing   = flag.Bool("timing", false, "also run the cycle-level timing comparison vs the baseline")
		saveTo   = flag.String("savetrace", "", "record the benchmark on the baseline LLC and save its capture file (the baseline capture -trace-dir records) to this file")
		replay   = flag.String("replay", "", "replay a capture file saved with -savetrace against the chosen LLC (skips functional execution)")

		faultRate  = flag.Float64("fault-rate", 0, "per-access fault-injection probability against the chosen LLC (0 disables)")
		faultSeed  = flag.Uint64("fault-seed", 1, "fault-injection seed; the same seed reproduces the same fault sites")
		faultModel = flag.String("fault-model", "flip", "fault manifestation: flip, stuck0, stuck1")

		qualityBudget = flag.Float64("quality-budget", 0, "online quality-guard output-error budget; the guard degrades the Doppelgänger to precise behaviour when its error estimate exceeds it (0 disables)")
		canaryRate    = flag.Float64("canary-rate", 0.05, "quality-guard canary sampling rate (fraction of substitutions checked against the precise value)")
		qualitySeed   = flag.Uint64("quality-seed", 1, "canary-sampling seed; the same seed reproduces the same canary sites")

		traceDir     = flag.String("trace-dir", "", "persistent trace-cache directory: record each simulation's capture file on first run, replay it afterwards")
		traceCapture = flag.Bool("trace-capture", false, "force re-recording captures in -trace-dir even when valid ones exist")
		traceReplay  = flag.Bool("trace-replay", false, "forbid kernel execution: fail any simulation without a valid capture in -trace-dir")
		traceVerify  = flag.String("trace-verify", "open", "startup scrub strictness for -trace-dir: off (sweep temp files only), open (verify each capture's digest), full (fully decode each capture)")

		metricsOut = flag.String("metrics-out", "", "write the run's counter snapshot as JSONL to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome-trace JSON (chrome://tracing) of the timing replays to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	budgetSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "quality-budget" {
			budgetSet = true
		}
	})
	if err := validateOptions(simOptions{
		Scale:            *scale,
		Cores:            *cores,
		MapBits:          *mapBits,
		DataFrac:         *dataFrac,
		FaultRate:        *faultRate,
		QualityBudget:    *qualityBudget,
		QualityBudgetSet: budgetSet,
		CanaryRate:       *canaryRate,
		TraceDir:         *traceDir,
		TraceCapture:     *traceCapture,
		TraceReplay:      *traceReplay,
		TraceVerify:      *traceVerify,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "doppelsim: %v\n", err)
		os.Exit(2)
	}

	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "doppelsim: %v\n", err)
		os.Exit(1)
	}
	if *traceDir != "" {
		// Lock and scrub the trace directory before any run trusts its
		// contents: orphaned temps are swept, condemned captures quarantined.
		store, err := doppelganger.OpenTraceStore(*traceDir, *traceVerify)
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		if rep := store.Report; !rep.Skipped &&
			(rep.TempsRemoved > 0 || rep.Quarantined > 0 || rep.Unreadable > 0) {
			fmt.Fprintf(os.Stderr, "doppelsim: trace scrub: removed %d temp(s), quarantined %d, %d unreadable (%d verified)\n",
				rep.TempsRemoved, rep.Quarantined, rep.Unreadable, rep.Verified)
		}
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "doppelsim: pprof server: %v\n", err)
			}
		}()
	}
	var reg *doppelganger.MetricsRegistry
	if *metricsOut != "" {
		reg = doppelganger.NewMetricsRegistry()
	}
	var tw *doppelganger.TraceWriter
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		tw = doppelganger.NewTraceWriter(f)
	}
	// writeObservability dumps the collected metrics/trace before exit.
	writeObservability := func(task string) {
		if reg != nil {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fatal(err)
			}
			if err := reg.WriteJSONL(f, task); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		if tw != nil {
			if err := tw.Close(); err != nil {
				fatal(err)
			}
			if err := traceFile.Close(); err != nil {
				fatal(err)
			}
		}
	}

	var kind doppelganger.LLCKind
	switch *llc {
	case "baseline":
		kind = doppelganger.Baseline
	case "split":
		kind = doppelganger.SplitDoppelganger
	case "unified":
		kind = doppelganger.UniDoppelganger
	default:
		fmt.Fprintf(os.Stderr, "doppelsim: unknown LLC organization %q\n", *llc)
		os.Exit(2)
	}

	if *saveTo != "" {
		if err := saveTrace(*bench, *scale, *cores, *saveTo, reg); err != nil {
			fatal(err)
		}
		writeObservability(*bench + "/record")
		return
	}
	if *replay != "" {
		if err := replayTrace(*replay, *llc, *mapBits, *dataFrac, *cores, reg, tw); err != nil {
			fatal(err)
		}
		writeObservability(*replay + "/" + *llc)
		return
	}

	model, err := doppelganger.ParseFaultModel(*faultModel)
	if err != nil {
		fatal(err)
	}
	var inj *doppelganger.FaultInjector
	if *faultRate > 0 {
		inj = doppelganger.NewFaultInjector(doppelganger.FaultConfig{
			Seed:  doppelganger.DeriveFaultSeed(*faultSeed, *bench+"/"+*llc),
			Model: model,
			Rate:  *faultRate,
		})
		inj.AttachMetrics(reg)
	}
	// newGuard builds one run's quality controller (a serial structure, like
	// the injector: each concurrent simulation needs its own).
	newGuard := func(key string) *doppelganger.QualityController {
		if *qualityBudget <= 0 {
			return nil
		}
		qc, err := doppelganger.NewQualityController(doppelganger.QualityConfig{
			Seed:       doppelganger.DeriveQualitySeed(*qualitySeed, key),
			Budget:     *qualityBudget,
			CanaryRate: *canaryRate,
		})
		if err != nil {
			fatal(err)
		}
		return qc
	}
	qc := newGuard(*bench + "/" + *llc)
	qc.AttachMetrics(reg)

	opts := doppelganger.RunOptions{
		Scale:        *scale,
		MapBits:      *mapBits,
		DataFrac:     *dataFrac,
		Cores:        *cores,
		Metrics:      reg,
		Trace:        tw,
		Faults:       inj,
		Quality:      qc,
		TraceDir:     *traceDir,
		TraceCapture: *traceCapture,
		TraceReplay:  *traceReplay,
	}

	// The functional-error measurement and the cycle-level timing
	// comparison are independent simulations, so with -timing they run
	// concurrently (each already overlaps its own baseline reference run).
	// An injector is serial, so the timing replay gets its own instance
	// with a stream derived from the same seed.
	var (
		tc    *doppelganger.TimingComparison
		tcErr error
		tcWG  sync.WaitGroup
	)
	if *timing {
		topts := opts
		if inj != nil {
			topts.Faults = doppelganger.NewFaultInjector(doppelganger.FaultConfig{
				Seed:  doppelganger.DeriveFaultSeed(*faultSeed, *bench+"/"+*llc+"/timing"),
				Model: model,
				Rate:  *faultRate,
			})
		}
		topts.Quality = newGuard(*bench + "/" + *llc + "/timing")
		tcWG.Add(1)
		go func() {
			defer tcWG.Done()
			tc, tcErr = doppelganger.RunTiming(*bench, kind, topts)
		}()
	}

	var res *doppelganger.BenchmarkResult
	if strings.Contains(*bench, "+") {
		// "a+b" co-schedules programs a and b (multiprogrammed run, §4.1).
		res, err = doppelganger.RunMultiprogram(strings.Split(*bench, "+"), kind, opts)
	} else {
		res, err = doppelganger.RunBenchmark(*bench, kind, opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "doppelsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchmark:       %s\n", *bench)
	fmt.Printf("llc:             %s (M=%d)\n", *llc, *mapBits)
	fmt.Printf("output error:    %.4f (%.2f%%)\n", res.Error, 100*res.Error)
	fmt.Printf("resident tags:   %d\n", res.LLCTags)
	fmt.Printf("data blocks:     %d\n", res.LLCDataBlocks)
	if res.LLCDataBlocks > 0 {
		fmt.Printf("tags per block:  %.2f\n", res.AvgTagsPerData)
	}
	if s := res.Stats; s != nil {
		fmt.Printf("doppel reads:    %d (%.1f%% hits)\n", s.Reads, 100*float64(s.ReadHits)/float64(max64(s.Reads, 1)))
		fmt.Printf("inserts:         %d (%d linked to similar blocks)\n", s.Inserts, s.ReuseLinks)
		fmt.Printf("writes:          %d silent, %d remapped, %d allocated\n", s.SilentWrites, s.Remaps, s.WriteAllocs)
		fmt.Printf("evictions:       %d tags (%.1f%% dirty), %d data entries\n",
			s.TagEvictions, 100*float64(s.DirtyTagEvictions)/float64(max64(s.TagEvictions, 1)), s.DataEvictions)
	}
	if inj != nil {
		fmt.Printf("faults injected: %d (rate %g, model %s, seed %d)\n",
			inj.TotalFaults(), *faultRate, model, *faultSeed)
		for _, t := range faults.Targets() {
			s := inj.Stats(t)
			fmt.Printf("  %-9s %d faults / %d draws\n", t.String()+":", s.Faults, s.Accesses)
		}
	}
	if qc != nil {
		s := qc.Stats()
		fmt.Printf("quality guard:   %s (est. error %.4f, budget %g)\n", qc.State(), qc.Estimate(), *qualityBudget)
		fmt.Printf("  canaries:      %d checked of %d draws (rate %g, seed %d)\n",
			s.Canaries, s.CanaryDraws, *canaryRate, *qualitySeed)
		fmt.Printf("  breaker:       %d trips, %d re-entries, %d approx loads served precisely\n",
			s.Trips, s.Reentries, s.Bypassed)
	}

	if *timing {
		tcWG.Wait()
		if tcErr != nil {
			fmt.Fprintf(os.Stderr, "doppelsim: timing: %v\n", tcErr)
			os.Exit(1)
		}
		fmt.Printf("cycles:          %d (baseline %d)\n", tc.Cycles, tc.BaselineCycles)
		fmt.Printf("norm. runtime:   %.3f\n", tc.NormalizedRuntime)
		fmt.Printf("LLC MPKI:        %.2f\n", tc.MPKI)
		fmt.Printf("norm. traffic:   %.3f\n", tc.NormalizedTraffic)
	}
	writeObservability(*bench + "/" + *llc)
}

// saveTrace records the benchmark on the baseline LLC and writes the run as
// a capture file: the same bytes a -trace-dir run records for the
// benchmark's baseline cell.
func saveTrace(bench string, scale float64, cores int, path string, reg *doppelganger.MetricsRegistry) error {
	f, err := workloads.ByName(bench)
	if err != nil {
		return err
	}
	run := workloads.RunFunctional(f.New(scale), workloads.BaselineBuilder(2<<20, 16),
		workloads.RunOptions{Cores: cores, Record: true, Metrics: reg})
	c, err := workloads.CaptureOf(run, trace.FileHeader{
		Benchmark: bench,
		Scale:     scale,
		Cores:     cores,
		ConfigKey: workloads.CaptureIdent("base/"+bench, scale, cores, ""),
	})
	if err != nil {
		return err
	}
	if err := c.WriteFile(path); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("saved %s: %d accesses, %d bytes\n", path, run.Recorder.Len(), fi.Size())
	return nil
}

// replayTrace loads a capture file and replays its recording
// cycle-accurately against the chosen organization.
func replayTrace(path, llc string, mapBits int, dataFrac float64, cores int,
	reg *doppelganger.MetricsRegistry, tw *doppelganger.TraceWriter) error {
	c, err := trace.ReadCaptureFile(path)
	if err != nil {
		return err
	}
	if c.Header.Cores != cores {
		return fmt.Errorf("%s was recorded with %d cores, but -cores is %d (replay it with -cores %d)",
			path, c.Header.Cores, cores, c.Header.Cores)
	}
	if dataFrac == 0 {
		dataFrac = 0.25
		if llc == "unified" {
			dataFrac = 0.5
		}
	}
	builder := workloads.BaselineBuilder(2<<20, 16)
	switch llc {
	case "baseline":
	case "split":
		builder = workloads.SplitBuilder(mapBits, dataFrac)
	case "unified":
		builder = workloads.UnifiedBuilder(mapBits, dataFrac)
	default:
		return fmt.Errorf("unknown LLC organization %q", llc)
	}
	cfg := timesim.DefaultConfig()
	cfg.Cores = cores
	cfg.Metrics = reg
	if tw != nil {
		cfg.Trace, cfg.TracePID, cfg.TraceLabel = tw, 1, path+" ("+llc+")"
	}
	res := timesim.Run(c.Recorder, c.InitialMem, c.Annotations, builder, cfg)
	if err := res.CrossCheck(reg); err != nil {
		return err
	}
	fmt.Printf("replayed %s against %s (M=%d, data %g)\n", path, llc, mapBits, dataFrac)
	fmt.Printf("cycles:          %d\n", res.Cycles)
	fmt.Printf("instructions:    %d (IPC %.2f over %d cores)\n",
		res.Instructions, float64(res.Instructions)/float64(res.Cycles), cores)
	fmt.Printf("LLC MPKI:        %.2f\n", res.MPKI())
	fmt.Printf("off-chip blocks: %d\n", res.MemTraffic())
	return nil
}
