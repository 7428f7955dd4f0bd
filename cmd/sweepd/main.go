// Command sweepd serves the simulation sweep as a fault-tolerant HTTP
// service.
//
// Usage:
//
//	sweepd -scale 0.1 [-addr :8734] [-max-queue 128]
//	sweepd -checkpoint run.jsonl [-resume]
//	sweepd -trace-dir traces [-trace-replay] ...
//
// Jobs are single sweep cells (POST /v1/jobs, see internal/server); the
// server memoizes results by cell key, computes each missing cell on one
// runner with up to GOMAXPROCS at a time, and sheds load with 429 +
// Retry-After when the queue budget is spent.
//
// On SIGTERM/SIGINT the server drains: admission closes (503), in-flight
// jobs get up to -drain-timeout to finish (every completed result is already
// in the -checkpoint file), the stragglers are cancelled, and the process
// exits 0; the log says how many submissions were cancelled. A later run
// with -resume primes the runner from the checkpoint: it answers every
// checkpointed cell without simulating and recomputes the rest, each
// byte-identical to an uninterrupted run.
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

		maxQueue = flag.Int("max-queue", 128, "computes that may wait for or hold a run slot before new ones are shed with 429 (at least 1)")

		jobTimeout = flag.Duration("job-timeout", 120*time.Second, "per-compute deadline, its wait for a run slot included; figure jobs honour it too")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before cancelling them")
		checkpoint   = flag.String("checkpoint", "", "persist completed results to this JSONL file as they finish")
		resume       = flag.Bool("resume", false, "prime the runner from -checkpoint: checkpointed cells are answered without simulating")

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
		JobTimeout:    *jobTimeout,
		DrainTimeout:  *drainTimeout,
		QualityBudget: *qualityBudget,
		CanaryRate:    *canaryRate,
		TraceDir:      *traceDir,
		TraceCapture:  *traceCapture,
		TraceReplay:   *traceReplay,
		TraceVerify:   *traceVerify,
		Resume:        *resume,
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
		JobTimeout:    *jobTimeout,
		DrainTimeout:  *drainTimeout,
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

	hs := newHTTPServer(s.Handler())

	// SIGTERM/SIGINT: drain (stop admission, finish in-flight within
	// -drain-timeout, cancel the stragglers), then shut the listener down so
	// Serve returns. drained closes once Shutdown has returned.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := <-sigs
		logf("%v: draining (timeout %v)", sig, *drainTimeout)
		logf("%s", drainReport(s.Drain(context.Background())))
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shctx)
	}()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "sweepd: serve: %v\n", err)
		os.Exit(1)
	}
	<-drained
	s.Close()
	if cp != nil {
		if err := cp.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sweepd: checkpoint: %v\n", err)
			os.Exit(1)
		}
	}
	logf("exit 0")
}

// drainReport says what a drain did with the submissions still in flight
// at -drain-timeout. Their cells are in no resume record: a resubmission
// computes them again.
func drainReport(cancelled int) string {
	if cancelled == 0 {
		return "drain: all in-flight jobs completed"
	}
	return fmt.Sprintf("drain: cancelled %d in-flight submission(s) at -drain-timeout; resubmitted, their cells compute again", cancelled)
}
