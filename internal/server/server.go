package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"doppelganger/internal/faults"
	"doppelganger/internal/metrics"
	"doppelganger/internal/singleflight"
	"doppelganger/internal/sweep"
	"doppelganger/internal/trace"
)

// ErrBadCell wraps cell validation failures (HTTP 400).
var ErrBadCell = errors.New("server: invalid cell")

// ErrDraining is returned once Drain has begun: admission is closed for good
// (HTTP 503); clients should fail over to another instance. A submission
// the drain cancels fails with an error matching both it and
// context.Canceled.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// errClosed refuses a compute that would start after Close.
var errClosed = errors.New("server: closed")

// OverloadError is a load-shedding refusal (HTTP 429): the queue budget is
// spent. RetryAfter is the server's own estimate of when capacity will
// exist — the Retry-After header, verbatim.
type OverloadError struct {
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overloaded (queue budget spent), retry after %v", e.RetryAfter)
}

// Config describes one Server. Zero values get the documented defaults.
type Config struct {
	// Scale sizes the workloads (required, positive).
	Scale float64
	// Cores is the CMP size (default 4, Table 1).
	Cores int
	// Only restricts the benchmark suite (figure jobs honor it too).
	Only []string

	// MaxQueue is the queue budget: how many computes may wait for or hold
	// a run slot at once (default 128). A submission whose cell misses the
	// memo when every slot is taken is refused with 429; a memo hit takes
	// no slot.
	MaxQueue int

	// JobTimeout bounds one compute, its wait for a run slot included
	// (default 120s).
	JobTimeout time.Duration

	// DrainTimeout bounds how long Drain waits for in-flight submissions
	// before cancelling the stragglers (default 30s).
	DrainTimeout time.Duration

	// Fault/quality knobs, passed straight to the runner (all seeds derive
	// from (seed, task key), never from which goroutine computes a cell).
	FaultSeed     uint64
	FaultModel    faults.Model
	QualityBudget float64
	QualitySeed   uint64
	CanaryRate    float64

	// Trace-cache flags (the warm-trace deployment records once, then every
	// sweep replays). TraceVerify selects how hard the startup janitor
	// checks each capture before the server reports ready (default
	// trace.VerifyOff; the sweepd flag defaults to "open").
	TraceDir    string
	TraceReplay bool
	TraceVerify trace.VerifyMode

	// Checkpoint, when non-nil, persists every completed result and primes
	// the runner from already-loaded records (resume): it is the server's
	// one resume record. The caller owns and closes it.
	Checkpoint *sweep.Checkpoint

	// Metrics receives all server and simulation instruments (created if
	// nil). Log, when non-nil, receives the runner's progress lines.
	Metrics *metrics.Registry
	Log     io.Writer
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 128
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 120 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// serverMetrics are the pre-resolved instruments on the submission path.
type serverMetrics struct {
	accepted, completed, failed *metrics.Counter
	cacheHits                   *metrics.Counter
	shedQueue                   *metrics.Counter
	rejectedDraining            *metrics.Counter
	panics, timeouts            *metrics.Counter
}

// Server is the sweep service: queue budget, result memo, one runner. Build
// with New, serve HTTP with Handler, stop with Drain + Close.
type Server struct {
	cfg    Config
	runner *sweep.Runner

	// queue and run are semaphores. A compute holds a queue slot while it
	// waits for or holds a run slot (MaxQueue of them), and a run slot
	// while it executes (GOMAXPROCS of them, the rule experiments
	// -workers 0 uses).
	queue chan struct{}
	run   chan struct{}

	// results is the memo, keyed by Cell.Key: the server's one runner fixes
	// scale, cores, seeds and budgets, so the key names the bytes. Every
	// concurrent submission of a cell shares its one compute. Failures are
	// forgotten, so a shed or failed job does not poison the key.
	results *singleflight.Memo[*Result]

	reg        *metrics.Registry
	m          serverMetrics
	latency    *metrics.Histogram
	depthGauge *metrics.Gauge

	// inflight counts the submissions between acceptance and reply. A
	// submission counts itself before it reads draining, and Drain sets
	// draining before it reads inflight, so Drain either waits for a
	// submission or the submission refuses itself.
	draining atomic.Bool
	inflight atomic.Int64

	// baseCtx parents every compute's context. Drain cancels it with
	// ErrDraining as the cause, Close with errClosed.
	baseCtx context.Context
	cancel  context.CancelCauseFunc

	// wg counts the computes in flight, for Close to wait on. closed, under
	// closeMu, stops new computes joining it once Close has begun, so no
	// Add can race the Wait.
	closeMu sync.Mutex
	closed  bool
	wg      sync.WaitGroup

	// traceStore holds the opened (locked, scrubbed) trace directory for
	// the server's lifetime; nil without a TraceDir. degradedGauge mirrors
	// the trace.degraded counter so dashboards see degraded mode as a
	// level, not just a rate.
	traceStore    *trace.Store
	degradedGauge *metrics.Gauge

	// beforeCompute, when set (tests only), runs on every compute just
	// before the cell executes, holding both slots; it may sleep or panic.
	beforeCompute func(key string)
}

// New builds a server. It computes on the goroutines that submit, so it
// starts none of its own.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if !(cfg.Scale > 0) {
		return nil, fmt.Errorf("server: scale must be positive, got %v", cfg.Scale)
	}
	if cfg.MaxQueue < 1 {
		return nil, fmt.Errorf("server: queue budget must be positive, got %d", cfg.MaxQueue)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	baseCtx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:     cfg,
		queue:   make(chan struct{}, cfg.MaxQueue),
		run:     make(chan struct{}, runtime.GOMAXPROCS(0)),
		results: singleflight.New[*Result](),
		reg:     reg,
		baseCtx: baseCtx,
		cancel:  cancel,
	}
	s.m = serverMetrics{
		accepted:         reg.Counter("server.jobs.accepted"),
		completed:        reg.Counter("server.jobs.completed"),
		failed:           reg.Counter("server.jobs.failed"),
		cacheHits:        reg.Counter("server.jobs.cache_hits"),
		shedQueue:        reg.Counter("server.shed.queue"),
		rejectedDraining: reg.Counter("server.rejected.draining"),
		panics:           reg.Counter("server.shard.panics"),
		timeouts:         reg.Counter("server.dispatch.timeouts"),
	}
	s.latency = reg.Histogram("server.latency_ms", []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000})
	s.depthGauge = reg.Gauge("server.queue_depth")
	s.degradedGauge = reg.Gauge("server.trace.degraded_cells")

	// Open (lock + scrub) the trace store before New returns — /readyz
	// cannot say ready until the directory has been swept of orphaned temp
	// files and condemned captures.
	if cfg.TraceDir != "" {
		st, err := trace.OpenStore(trace.OS, cfg.TraceDir, cfg.TraceVerify)
		if err != nil {
			cancel(err)
			return nil, err
		}
		s.traceStore = st
		rep := st.Report
		if rep.Skipped {
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "trace store %s: scrub skipped (directory shared with a live process)\n", cfg.TraceDir)
			}
		} else {
			reg.Counter("trace.scrub.temps_removed").Add(uint64(rep.TempsRemoved))
			reg.Counter("trace.scrub.verified").Add(uint64(rep.Verified))
			reg.Counter("trace.scrub.quarantined").Add(uint64(rep.Quarantined))
			reg.Counter("trace.scrub.unreadable").Add(uint64(rep.Unreadable))
			if cfg.Log != nil && (rep.TempsRemoved > 0 || rep.Quarantined > 0 || rep.Unreadable > 0) {
				fmt.Fprintf(cfg.Log, "trace store %s: scrub removed %d temp(s), quarantined %d, %d unreadable (%d verified)\n",
					cfg.TraceDir, rep.TempsRemoved, rep.Quarantined, rep.Unreadable, rep.Verified)
			}
		}
	}

	// One worker: a figure job prewarms its grid serially, so it holds one
	// run slot like any other compute.
	r := sweep.NewRunner(cfg.Scale)
	r.Cores = cfg.Cores
	r.Only = cfg.Only
	r.Workers = 1
	r.Log = cfg.Log
	r.Metrics = reg
	r.FaultSeed = cfg.FaultSeed
	r.FaultModel = cfg.FaultModel
	r.QualityBudget = cfg.QualityBudget
	r.QualitySeed = cfg.QualitySeed
	r.CanaryRate = cfg.CanaryRate
	r.TraceDir = cfg.TraceDir
	r.TraceReplay = cfg.TraceReplay
	r.Checkpoint = cfg.Checkpoint
	if cfg.Checkpoint != nil {
		r.Resume(cfg.Checkpoint)
	}
	s.runner = r
	return s, nil
}

// Submit is the front door: validation, drain refusal, then the memo. A
// cell that misses the memo is computed on the calling goroutine, or shed
// with 429 when the queue budget is spent; a memo hit takes no slot. The
// submission counts as in flight, for Drain, until it is answered.
func (s *Server) Submit(ctx context.Context, c Cell) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCell, err)
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		s.m.rejectedDraining.Inc()
		return nil, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.m.accepted.Inc()
	start := time.Now()
	key := c.Key()
	computed := false
	res, err := s.results.Do(key, func() (*Result, error) {
		computed = true
		return s.compute(c, key)
	})
	if err != nil {
		var overload *OverloadError
		switch {
		case errors.As(err, &overload):
			s.m.shedQueue.Inc()
		case errors.Is(err, ErrDraining):
			s.m.rejectedDraining.Inc()
		default:
			s.m.failed.Inc()
		}
		return nil, err
	}
	s.m.completed.Inc()
	s.latency.Observe(float64(time.Since(start).Milliseconds()))
	if !computed {
		s.m.cacheHits.Inc()
		out := *res
		out.Cached = true
		return &out, nil
	}
	return res, nil
}

// compute runs one cell that missed the memo, on the calling goroutine: it
// takes a queue slot (shedding when none is free), waits for a run slot,
// then executes the cell on the runner and seals its payload. Its context
// is the server's, not the submitter's: a canceled client must not fail
// the compute out from under the other memo waiters. A compute the drain
// cancels fails with ErrDraining as well as the cancellation.
// A panic fails only this compute; the memo hands the error to every
// waiter and forgets the key. A cell is deterministic, so a failure is not
// retried: it would fail again.
func (s *Server) compute(c Cell, key string) (res *Result, err error) {
	if !s.track() {
		return nil, errClosed
	}
	defer s.wg.Done()
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()
	defer func() {
		switch {
		case err == nil:
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			s.m.timeouts.Inc()
		case errors.Is(context.Cause(ctx), ErrDraining):
			err = fmt.Errorf("%w: %w", ErrDraining, err)
		}
	}()

	select {
	case s.queue <- struct{}{}:
	default:
		return nil, &OverloadError{RetryAfter: 250 * time.Millisecond}
	}
	s.depthGauge.Add(1)
	defer func() {
		<-s.queue
		s.depthGauge.Add(-1)
	}()
	select {
	case s.run <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("server: job %s got no run slot: %w", key, ctx.Err())
	}
	defer func() { <-s.run }()

	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Inc()
			res, err = nil, fmt.Errorf("server: panic computing %s: %v\n%s", key, p, debug.Stack())
		}
	}()
	if hook := s.beforeCompute; hook != nil {
		hook(key)
	}
	payload, err := executeCell(ctx, s.runner, c)
	if err != nil {
		return nil, fmt.Errorf("server: job %s: %w", key, err)
	}
	return &Result{Key: key, Payload: payload, Sum: checksum(payload)}, nil
}

// track adds one compute to wg, unless Close has begun.
func (s *Server) track() bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

// Ready reports whether the server accepts work: true until Drain begins
// (readyz turns 503).
func (s *Server) Ready() bool { return !s.draining.Load() }

// Drain is the SIGTERM path: stop admission for good, wait (up to
// DrainTimeout) for the submissions in flight to be answered — every
// completed result is already in the checkpoint — then cancel the
// stragglers so their HTTP handlers return and the listener's Shutdown can
// complete. It returns how many submissions it cancelled; resubmitted, their
// cells compute again. Idempotent: later calls return 0 at once.
func (s *Server) Drain(ctx context.Context) int {
	if !s.draining.CompareAndSwap(false, true) {
		return 0
	}
	timeout := time.NewTimer(s.cfg.DrainTimeout)
	defer timeout.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
wait:
	for s.inflight.Load() > 0 {
		select {
		case <-tick.C:
		case <-timeout.C:
			break wait
		case <-ctx.Done():
			break wait
		}
	}
	left := int(s.inflight.Load())
	if left > 0 {
		s.cancel(ErrDraining)
	}
	return left
}

// Close hard-stops the server (in-flight computes abort, and Close waits
// for them; later ones are refused) and releases the trace-store lock.
// Drain first for a graceful exit.
func (s *Server) Close() {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	s.cancel(errClosed)
	s.wg.Wait()
	if s.traceStore != nil {
		s.traceStore.Close()
	}
}

// Computes reports how many computes ran, failed and shed ones included
// (the exactly-once ledger the chaos test audits).
func (s *Server) Computes() int64 { return s.results.Computes() }

// Metrics exposes the server's registry (the /metrics endpoint renders it).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Stats is the /v1/stats payload.
type Stats struct {
	Draining   bool  `json:"draining"`
	Ready      bool  `json:"ready"`
	QueueDepth int64 `json:"queue_depth"`
	// Pending counts the submissions accepted and not yet answered.
	Pending   int    `json:"pending"`
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	CacheHits uint64 `json:"cache_hits"`
	Computes  int64  `json:"computes"`
	ShedQueue uint64 `json:"shed_queue"`
	// RejectedDraining counts the submissions refused or cancelled because
	// the server is draining (answered 503).
	RejectedDraining uint64 `json:"rejected_draining"`
	Panics           uint64 `json:"panics"`

	// Trace-store health: replayed/recorded captures, captures condemned to
	// quarantine (then transparently re-recorded), and cells that degraded
	// to live execution because the store was unavailable. TraceScrub is
	// what the startup janitor did (nil without a trace dir).
	TraceReplays     uint64             `json:"trace_replays,omitempty"`
	TraceRecords     uint64             `json:"trace_records,omitempty"`
	TraceQuarantined uint64             `json:"trace_quarantined,omitempty"`
	TraceDegraded    uint64             `json:"trace_degraded,omitempty"`
	TraceScrub       *trace.ScrubReport `json:"trace_scrub,omitempty"`
}

// Stats snapshots the server's health.
func (s *Server) Stats() Stats {
	st := Stats{
		Draining:   s.draining.Load(),
		Ready:      s.Ready(),
		QueueDepth: int64(len(s.queue)),
		Pending:    int(s.inflight.Load()),
		Accepted:   s.m.accepted.Value(),
		Completed:  s.m.completed.Value(),
		Failed:     s.m.failed.Value(),
		CacheHits:  s.m.cacheHits.Value(),
		Computes:   s.Computes(),
		ShedQueue:  s.m.shedQueue.Value(),
		Panics:     s.m.panics.Value(),

		RejectedDraining: s.m.rejectedDraining.Value(),

		TraceReplays: s.reg.CounterValue("trace.replays"),
		TraceRecords: s.reg.CounterValue("trace.records"),
		TraceQuarantined: s.reg.CounterValue("trace.quarantines") +
			s.reg.CounterValue("trace.scrub.quarantined"),
		TraceDegraded: s.reg.CounterValue("trace.degraded"),
	}
	if s.traceStore != nil {
		rep := s.traceStore.Report
		st.TraceScrub = &rep
	}
	// Mirror the degraded count onto the gauge so /metrics shows degraded
	// mode as a level alongside the raw counter.
	s.degradedGauge.Set(int64(st.TraceDegraded))
	return st
}
