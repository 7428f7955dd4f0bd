// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale 1] [-only bench1,bench2] [-quiet] [-workers N] [-serial] [-format text|csv|json|chart] all
//	experiments table2 fig2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 table3
//	experiments -fault-rate 1e-5,1e-4 -seed 42 faults
//	experiments -quality-budget 0.05 -canary-rate 0.05 -quality-seed 1 quality
//	experiments -checkpoint run.jsonl [-resume] [-timeout 2h] [-task-timeout 10m] [-retries 2] all
//
// By default the full simulation grid is fanned out over a worker pool
// (one worker per CPU; -workers overrides) before the tables are rendered
// in deterministic paper order. -serial skips the parallel engine and
// computes every simulation lazily on one goroutine; the numbers are
// bit-identical either way.
//
// The run shuts down gracefully on SIGINT/SIGTERM (or when -timeout
// expires): in-flight simulations are interrupted, completed results are
// flushed to the -checkpoint file and -metrics-out, and the process exits
// 130 (interrupt) or 1 (failure). A later invocation with -resume skips
// every checkpointed task and renders bit-identical tables.
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"doppelganger"
)

func main() {
	var (
		scale   = flag.Float64("scale", 1, "workload scale (1 = paper-size working sets)")
		only    = flag.String("only", "", "comma-separated benchmark subset")
		quiet   = flag.Bool("quiet", false, "suppress progress logging")
		format  = flag.String("format", "text", "output format: text, csv, json, chart")
		workers = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		serial  = flag.Bool("serial", false, "skip the parallel engine; compute lazily on one goroutine")

		timeout     = flag.Duration("timeout", 0, "overall wall-clock budget; the run shuts down gracefully when it expires (0 = none)")
		taskTimeout = flag.Duration("task-timeout", 0, "per-task deadline; a task exceeding it fails and may retry (0 = none)")
		retries     = flag.Int("retries", 0, "retries per failed task, with exponential backoff")
		checkpoint  = flag.String("checkpoint", "", "persist completed results to this JSONL file as they finish")
		resume      = flag.Bool("resume", false, "load -checkpoint first and skip already-completed tasks bit-identically")

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

		decodedCacheMB = flag.Int("decoded-cache-mb", 0, "in-memory decoded-capture cache budget, MB: decode each capture in -trace-dir once per sweep, not once per consumer (0 disables)")

		metricsOut = flag.String("metrics-out", "", "write per-task + total counter snapshots as JSONL to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome-trace JSON (chrome://tracing) of every timing run to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}

	workersSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSet = true
		}
	})
	if err := validateOptions(sweepOptions{
		Scale:          *scale,
		Workers:        *workers,
		WorkersSet:     workersSet,
		Retries:        *retries,
		QualityBudget:  *qualityBudget,
		CanaryRate:     *canaryRate,
		TraceDir:       *traceDir,
		TraceCapture:   *traceCapture,
		TraceReplay:    *traceReplay,
		TraceVerify:    *traceVerify,
		DecodedCacheMB: *decodedCacheMB,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	var log io.Writer = os.Stderr
	if *quiet {
		log = nil
	}
	ev := doppelganger.NewEvaluation(*scale, log)
	if *only != "" {
		ev.Restrict(strings.Split(*only, ",")...)
	}
	ev.Parallel(*workers)
	ev.Resilience(*taskTimeout, *retries)

	model, err := doppelganger.ParseFaultModel(*faultModel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	var rates []float64
	if *faultRates != "" {
		if rates, err = parseRates(*faultRates); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}
	ev.Faults(rates, *faultSeed, model)
	ev.Quality(*qualityBudget, *canaryRate, *qualitySeed)
	if *traceDir != "" {
		// Open the store first: lock the directory for the run's lifetime
		// and scrub it (sweep orphaned temps, quarantine condemned captures)
		// before any cell trusts its contents.
		store, err := doppelganger.OpenTraceStore(*traceDir, *traceVerify)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer store.Close()
		if rep := store.Report; log != nil && !rep.Skipped &&
			(rep.TempsRemoved > 0 || rep.Quarantined > 0 || rep.Unreadable > 0) {
			fmt.Fprintf(os.Stderr, "experiments: trace scrub: removed %d temp(s), quarantined %d, %d unreadable (%d verified)\n",
				rep.TempsRemoved, rep.Quarantined, rep.Unreadable, rep.Verified)
		}
		ev.Traces(*traceDir, *traceCapture, *traceReplay)
	}

	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -checkpoint")
		os.Exit(2)
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
		ev.CollectMetrics()
	}
	if *traceDir != "" {
		// After CollectMetrics, so the decoded cache's counters land on the
		// registry -metrics-out snapshots.
		ev.DecodedCache(*decodedCacheMB)
	}
	var finishTrace func() error
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		finish := ev.TraceTo(tf)
		finishTrace = func() error {
			if err := finish(); err != nil {
				return err
			}
			return tf.Close()
		}
	}
	var finishCheckpoint func() error
	if *checkpoint != "" {
		finishCheckpoint, err = ev.CheckpointTo(*checkpoint, *resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		for _, w := range ev.CheckpointWarnings() {
			fmt.Fprintf(os.Stderr, "experiments: checkpoint: %s\n", w)
		}
	}

	// flush persists whatever has completed — called on success AND on
	// failure/interrupt, so partial results always land on disk.
	flush := func() {
		if *metricsOut != "" {
			if mf, err := os.Create(*metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			} else {
				if err := ev.WriteMetrics(mf); err != nil {
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

	order := []string{"table2", "fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "table3", "extras", "faults", "quality"}
	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			// "all" covers the paper's tables and figures; the extras, faults
			// and quality tables are requested explicitly.
			for _, o := range order {
				if o != "extras" && o != "faults" && o != "quality" {
					want[o] = true
				}
			}
			continue
		}
		want[strings.ToLower(a)] = true
	}

	// Fan the requested experiments' simulation grid out over the engine up
	// front; the emit loop below then renders from warm caches in paper
	// order.
	var wanted []string
	dynamic := false
	for _, o := range order {
		if want[o] {
			wanted = append(wanted, o)
			if o != "table3" && o != "fig13" {
				dynamic = true
			}
		}
	}
	if dynamic && !*serial {
		if err := ev.PrewarmForContext(ctx, wanted...); err != nil {
			fail(err)
		}
	}

	emit := func(ts ...*doppelganger.Table) {
		for _, t := range ts {
			switch *format {
			case "csv":
				fmt.Printf("# %s\n%s\n", t.Title, t.FormatCSV())
			case "json":
				fmt.Println(t.FormatJSON())
			case "chart":
				fmt.Println(t.FormatChart())
			default:
				fmt.Println(t.Format())
			}
		}
	}
	emitErr := func(err error, ts ...*doppelganger.Table) {
		if err != nil {
			fail(err)
		}
		emit(ts...)
	}
	ran := 0
	for _, name := range order {
		if !want[name] {
			continue
		}
		ran++
		switch name {
		case "table2":
			t, err := ev.Table2()
			emitErr(err, t)
		case "fig2":
			t, err := ev.Fig2()
			emitErr(err, t)
		case "fig7":
			t, err := ev.Fig7()
			emitErr(err, t)
		case "fig8":
			t, err := ev.Fig8()
			emitErr(err, t)
		case "fig9":
			a, b, err := ev.Fig9()
			emitErr(err, a, b)
		case "fig10":
			a, b, err := ev.Fig10()
			emitErr(err, a, b)
		case "fig11":
			a, b, err := ev.Fig11()
			emitErr(err, a, b)
		case "fig12":
			t, err := ev.Fig12()
			emitErr(err, t)
		case "fig13":
			emit(ev.Fig13())
		case "fig14":
			a, b, c, err := ev.Fig14()
			emitErr(err, a, b, c)
		case "table3":
			emit(ev.Table3())
		case "extras":
			t, err := ev.Extras()
			emitErr(err, t)
		case "faults":
			t, err := ev.FaultSweep()
			emitErr(err, t)
		case "quality":
			a, b, err := ev.QualitySweep()
			emitErr(err, a, b)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing matched %v (known: %s, all)\n", args, strings.Join(order, ", "))
		os.Exit(2)
	}
	flush()
}
