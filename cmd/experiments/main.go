// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale 1] [-only bench1,bench2] [-quiet] [-workers N] [-serial] [-format text|csv|json|chart] all
//	experiments table2 fig2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 table3
//	experiments -fault-rate 1e-5,1e-4 -seed 42 faults
//	experiments -quality-budget 0.05 -canary-rate 0.05 -quality-seed 1 quality
//	experiments -checkpoint run.jsonl [-resume] [-timeout 2h] all
//
// The names are the entries of sweep.Experiments; "all" selects the paper's
// tables and figures, and no name means "all". Flags go before the names:
// an unknown name (a flag after the names included) or -format exits 2
// before anything runs.
//
// By default the selected experiments' simulation grid is fanned out over a
// worker pool (one worker per CPU; -workers overrides) before the tables
// are rendered in list order. -serial skips the parallel engine and
// computes every simulation lazily on one goroutine; the numbers are
// bit-identical either way.
//
// The run shuts down gracefully on SIGINT/SIGTERM (or when -timeout
// expires): in-flight simulations are interrupted, completed results are
// flushed to the -checkpoint file and -metrics-out, and the process exits
// 130 (interrupt) or 1 (failure). A later invocation with -resume skips
// every checkpointed task and renders bit-identical tables. A task is
// deterministic, so a failed one is not retried; a panicking simulation
// fails its own task, not the run.
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"doppelganger/internal/faults"
	"doppelganger/internal/metrics"
	"doppelganger/internal/sweep"
	"doppelganger/internal/trace"
)

// formats renders one table in each -format spelling.
var formats = map[string]func(*sweep.Table) string{
	"text":  (*sweep.Table).Format,
	"csv":   func(t *sweep.Table) string { return "# " + t.Title + "\n" + t.FormatCSV() },
	"json":  (*sweep.Table).FormatJSON,
	"chart": (*sweep.Table).FormatChart,
}

func main() {
	var (
		scale   = flag.Float64("scale", 1, "workload scale (1 = paper-size working sets)")
		only    = flag.String("only", "", "comma-separated benchmark subset")
		quiet   = flag.Bool("quiet", false, "suppress progress logging")
		format  = flag.String("format", "text", "output format: text, csv, json, chart")
		workers = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		serial  = flag.Bool("serial", false, "skip the parallel engine; compute lazily on one goroutine")

		timeout    = flag.Duration("timeout", 0, "overall wall-clock budget; the run shuts down gracefully when it expires (0 = none)")
		checkpoint = flag.String("checkpoint", "", "persist completed results to this JSONL file as they finish")
		resume     = flag.Bool("resume", false, "load -checkpoint first and skip already-completed tasks bit-identically")

		faultRates = flag.String("fault-rate", "", "comma-separated per-access fault rates for the faults experiment (default 1e-6,1e-5,1e-4)")
		faultSeed  = flag.Uint64("seed", 1, "global fault-injection seed; results are deterministic in it at any worker count")
		faultModel = flag.String("fault-model", "flip", "fault manifestation: flip, stuck0, stuck1")

		qualityBudget = flag.Float64("quality-budget", 0.05, "quality-guard output-error budget for the quality experiment")
		canaryRate    = flag.Float64("canary-rate", 0.05, "quality-guard canary sampling rate (fraction of substitutions checked precisely)")
		qualitySeed   = flag.Uint64("quality-seed", 1, "global canary-sampling seed; results are deterministic in it at any worker count")

		traceDir     = flag.String("trace-dir", "", "persistent trace-cache directory: record each functional cell's capture on first run, replay on later sweeps (zero kernel executions when warm)")
		traceCapture = flag.Bool("trace-capture", false, "force re-recording captures in -trace-dir even when valid ones exist")
		traceReplay  = flag.Bool("trace-replay", false, "forbid kernel execution: fail any cell without a valid capture in -trace-dir")
		traceVerify  = flag.String("trace-verify", "open", "startup scrub strictness for -trace-dir: off (sweep temp files only), open (verify each capture's digest), full (fully decode each capture)")

		metricsOut = flag.String("metrics-out", "", "write per-task + total counter snapshots as JSONL to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome-trace JSON (chrome://tracing) of every timing run to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	workersSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSet = true
		}
	})
	if err := validateOptions(sweepOptions{
		Scale:         *scale,
		Workers:       *workers,
		WorkersSet:    workersSet,
		QualityBudget: *qualityBudget,
		CanaryRate:    *canaryRate,
		TraceDir:      *traceDir,
		TraceCapture:  *traceCapture,
		TraceReplay:   *traceReplay,
		TraceVerify:   *traceVerify,
		Format:        *format,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	selected, err := selectExperiments(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -checkpoint")
		os.Exit(2)
	}

	r := sweep.NewRunner(*scale)
	if !*quiet {
		r.Log = os.Stderr
	}
	if *only != "" {
		r.Only = strings.Split(*only, ",")
	}
	r.Workers = *workers

	if r.FaultModel, err = faults.ParseModel(*faultModel); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if *faultRates != "" {
		if r.FaultRates, err = parseRates(*faultRates); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}
	r.FaultSeed = *faultSeed
	r.QualityBudget = *qualityBudget
	r.CanaryRate = *canaryRate
	r.QualitySeed = *qualitySeed
	if *traceDir != "" {
		// Open the store first: lock the directory for the run's lifetime
		// and scrub it (sweep orphaned temps, quarantine condemned captures)
		// before any cell trusts its contents.
		mode, err := trace.ParseVerifyMode(*traceVerify)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		store, err := trace.OpenStore(trace.OS, *traceDir, mode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer store.Close()
		if rep := store.Report; !*quiet && !rep.Skipped &&
			(rep.TempsRemoved > 0 || rep.Quarantined > 0 || rep.Unreadable > 0) {
			fmt.Fprintf(os.Stderr, "experiments: trace scrub: removed %d temp(s), quarantined %d, %d unreadable (%d verified)\n",
				rep.TempsRemoved, rep.Quarantined, rep.Unreadable, rep.Verified)
		}
		r.TraceDir = *traceDir
		r.TraceCapture = *traceCapture
		r.TraceReplay = *traceReplay
	}

	// The run context: SIGINT/SIGTERM and -timeout all funnel into one
	// cancellation that drains the engine gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: pprof server: %v\n", err)
			}
		}()
	}
	if *metricsOut != "" {
		// Per-task snapshots as well as the total: perfbench's traced drive
		// reads them.
		r.Metrics = metrics.NewRegistry()
		r.TaskMetrics = true
	}
	var finishTrace func() error
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		tw := metrics.NewTraceWriter(tf)
		r.Trace = tw
		finishTrace = func() error {
			if err := tw.Close(); err != nil {
				return err
			}
			return tf.Close()
		}
	}
	var finishCheckpoint func() error
	if *checkpoint != "" {
		cp, err := sweep.OpenCheckpoint(*checkpoint, *resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		r.Checkpoint = cp
		if *resume {
			r.Resume(cp)
		}
		for _, w := range cp.Warnings() {
			fmt.Fprintf(os.Stderr, "experiments: checkpoint: %s\n", w)
		}
		finishCheckpoint = cp.Close
	}

	// flush persists whatever has completed — called on success AND on
	// failure/interrupt, so partial results always land on disk.
	flush := func() {
		if *metricsOut != "" {
			if mf, err := os.Create(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			} else {
				if err := r.WriteMetricsJSONL(mf); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				}
				mf.Close()
			}
		}
		if finishTrace != nil {
			if err := finishTrace(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
		}
		if finishCheckpoint != nil {
			if err := finishCheckpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
		}
	}
	fail := func(err error) {
		flush()
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		if errors.Is(ctx.Err(), context.Canceled) {
			os.Exit(130) // interrupted: partial results are checkpointed
		}
		os.Exit(1)
	}

	// Fan the selected experiments' simulation grid out over the engine up
	// front; the loop below then renders from warm caches in list order.
	var names []string
	dynamic := false
	for _, e := range selected {
		names = append(names, e.Name)
		dynamic = dynamic || e.Grid != nil
	}
	if dynamic && !*serial {
		if err := r.PrewarmContext(ctx, sweep.GridFor(names...)); err != nil {
			fail(err)
		}
	}
	for _, e := range selected {
		tables, err := r.Render(e.Name)
		if err != nil {
			fail(err)
		}
		for _, t := range tables {
			fmt.Println(formats[*format](t))
		}
	}
	flush()
}
