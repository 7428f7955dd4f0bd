// Command sweepd serves the simulation sweep as a fault-tolerant HTTP
// service.
//
// Usage:
//
//	sweepd -scale 0.1 [-addr :8734] [-max-queue 128]
//	sweepd -checkpoint run.jsonl -state drain.json [-resume]
//	sweepd -trace-dir traces [-trace-replay] ...
//
// Jobs are single sweep cells (POST /v1/jobs, see internal/server); the
// server memoizes results by content hash, computes each missing cell on
// one runner with up to GOMAXPROCS at a time, and sheds load with 429 +
// Retry-After when the token bucket or queue budget runs dry.
//
// On SIGTERM/SIGINT the server drains: admission closes (503), in-flight
// jobs get up to -drain-timeout to finish (every completed result is already
// in the -checkpoint file), the leftover cells are snapshotted to -state,
// and the process exits 0 — or 1 if the state file could not be written.
// Without -state the leftover cells are dropped, and the log says so. A
// later run with -resume primes the runner from the checkpoint and
// re-submits the snapshotted cells — the combined output is byte-identical
// to an uninterrupted run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"doppelganger/internal/faults"
	"doppelganger/internal/server"
	"doppelganger/internal/sweep"
	"doppelganger/internal/trace"
)

// Connection timeouts, so a client that trickles its request headers, or
// idles between requests, cannot hold a connection and its goroutine for
// good. There is deliberately no ReadTimeout or WriteTimeout: a job may run
// for the whole -job-timeout, and a read deadline that expires mid-job makes
// net/http cancel the request's context. The job body's read is bounded by
// the handler itself (internal/server).
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer wraps the job server's handler with the connection timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	var (
		addr  = flag.String("addr", ":8734", "listen address (use :0 for an ephemeral port; the chosen address is printed)")
		scale = flag.Float64("scale", 1, "workload scale (1 = paper-size working sets)")
		cores = flag.Int("cores", 4, "CMP size for timing simulations")
		only  = flag.String("only", "", "comma-separated benchmark subset")
		quiet = flag.Bool("quiet", false, "suppress progress logging")

		maxQueue = flag.Int("max-queue", 128, "computes that may wait for or hold a run slot before new ones are shed with 429")

		admitRate  = flag.Float64("admit-rate", 2000, "admission token-bucket refill rate (jobs/s)")
		admitBurst = flag.Float64("admit-burst", 1000, "admission token-bucket burst")

		jobTimeout = flag.Duration("job-timeout", 120*time.Second, "per-compute deadline, its wait for a slot included")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before snapshotting them")
		statePath    = flag.String("state", "", "drain state file: pending cells land here on SIGTERM, -resume re-submits them")
		checkpoint   = flag.String("checkpoint", "", "persist completed results to this JSONL file as they finish")
		resume       = flag.Bool("resume", false, "prime the runner from -checkpoint and re-submit the -state cells at startup")

		faultSeed  = flag.Uint64("seed", 1, "global fault-injection seed; results are deterministic in it at any concurrency")
		faultModel = flag.String("fault-model", "flip", "fault manifestation: flip, stuck0, stuck1")

		qualityBudget = flag.Float64("quality-budget", 0.05, "quality-guard output-error budget")
		canaryRate    = flag.Float64("canary-rate", 0.05, "quality-guard canary sampling rate")
		qualitySeed   = flag.Uint64("quality-seed", 1, "global canary-sampling seed")

		traceDir     = flag.String("trace-dir", "", "persistent trace-cache directory (record on first run, replay after)")
		traceCapture = flag.Bool("trace-capture", false, "force re-recording captures in -trace-dir")
		traceReplay  = flag.Bool("trace-replay", false, "forbid kernel execution: fail any cell without a valid capture")
		traceVerify  = flag.String("trace-verify", "open", "startup scrub strictness for -trace-dir: off (sweep temp files only), open (verify each capture's digest), full (fully decode each capture)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(2)
	}
	if err := validateOptions(sweepdOptions{
		Scale:         *scale,
		Cores:         *cores,
		MaxQueue:      *maxQueue,
		AdmitRate:     *admitRate,
		AdmitBurst:    *admitBurst,
		JobTimeout:    *jobTimeout,
		DrainTimeout:  *drainTimeout,
		QualityBudget: *qualityBudget,
		CanaryRate:    *canaryRate,
		TraceDir:      *traceDir,
		TraceCapture:  *traceCapture,
		TraceReplay:   *traceReplay,
		TraceVerify:   *traceVerify,
		Resume:        *resume,
		StatePath:     *statePath,
		Checkpoint:    *checkpoint,
	}); err != nil {
		fail(err)
	}
	model, err := faults.ParseModel(*faultModel)
	if err != nil {
		fail(err)
	}
	verifyMode, err := trace.ParseVerifyMode(*traceVerify)
	if err != nil {
		fail(err)
	}

	var logw io.Writer = os.Stderr
	if *quiet {
		logw = nil
	}
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "sweepd: "+format+"\n", args...)
	}

	var cp *sweep.Checkpoint
	if *checkpoint != "" {
		cp, err = sweep.OpenCheckpoint(*checkpoint, *resume)
		if err != nil {
			fail(err)
		}
		for _, w := range cp.Warnings() {
			logf("checkpoint: %s", w)
		}
		if *resume && cp.Len() > 0 {
			logf("resumed %d checkpointed result(s) from %s", cp.Len(), *checkpoint)
		}
	}

	cfg := server.Config{
		Scale:         *scale,
		Cores:         *cores,
		MaxQueue:      *maxQueue,
		AdmitRate:     *admitRate,
		AdmitBurst:    *admitBurst,
		JobTimeout:    *jobTimeout,
		DrainTimeout:  *drainTimeout,
		StatePath:     *statePath,
		FaultSeed:     *faultSeed,
		FaultModel:    model,
		QualityBudget: *qualityBudget,
		QualitySeed:   *qualitySeed,
		CanaryRate:    *canaryRate,
		TraceDir:      *traceDir,
		TraceCapture:  *traceCapture,
		TraceReplay:   *traceReplay,
		TraceVerify:   verifyMode,
		Checkpoint:    cp,
		Log:           logw,
	}
	if *only != "" {
		cfg.Only = strings.Split(*only, ",")
	}
	s, err := server.New(cfg)
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// Catch SIGTERM/SIGINT before announcing the address, so a harness that
	// signals as soon as it reads the line gets a drain, not a kill.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	// The listening line goes to stdout so harnesses (and humans) can scrape
	// the resolved address when -addr was :0.
	fmt.Printf("sweepd: listening on %s\n", ln.Addr())

	// Resume: re-submit the drained cells in the background (SubmitLocal
	// skips admission and waits for a queue slot — resumed work is never
	// shed). Cells whose results are already in the checkpoint complete
	// instantly from the primed memo.
	if *resume && *statePath != "" {
		if cells, err := server.LoadState(*statePath); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				fail(err)
			}
		} else if len(cells) > 0 {
			logf("resuming %d pending cell(s) from %s", len(cells), *statePath)
			go func() {
				for _, c := range cells {
					if _, err := s.SubmitLocal(context.Background(), c); err != nil {
						logf("resume %s: %v", c.Key(), err)
					}
				}
				logf("resume complete")
			}()
		}
	}

	hs := newHTTPServer(s.Handler())

	// SIGTERM/SIGINT: drain (stop admission, finish in-flight within
	// -drain-timeout, snapshot stragglers to -state), then shut the listener
	// down so Serve returns. drained carries whether the drain kept every
	// pending cell it was asked to keep.
	drained := make(chan bool, 1)
	go func() {
		sig := <-sigs
		logf("%v: draining (timeout %v)", sig, *drainTimeout)
		left, err := s.Drain(context.Background())
		msg, ok := drainReport(len(left), *statePath, err)
		logf("%s", msg)
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shctx)
		drained <- ok
	}()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "sweepd: serve: %v\n", err)
		os.Exit(1)
	}
	ok := <-drained
	s.Close()
	if cp != nil {
		if err := cp.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sweepd: checkpoint: %v\n", err)
			os.Exit(1)
		}
	}
	if !ok {
		logf("exit 1")
		os.Exit(1)
	}
	logf("exit 0")
}

// drainReport says where the cells a drain left pending went. It is not ok
// when the state file could not be written.
func drainReport(left int, statePath string, err error) (string, bool) {
	switch {
	case err != nil:
		return fmt.Sprintf("drain: state file not written, %d pending cell(s) lost: %v", left, err), false
	case left == 0:
		return "drain: all in-flight jobs completed", true
	case statePath == "":
		return fmt.Sprintf("drain: %d cell(s) still pending, dropped (no -state file)", left), true
	default:
		return fmt.Sprintf("drain: %d cell(s) still pending, snapshotted to %s", left, statePath), true
	}
}
