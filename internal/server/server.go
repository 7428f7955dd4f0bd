package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"doppelganger/internal/faults"
	"doppelganger/internal/metrics"
	"doppelganger/internal/quality"
	"doppelganger/internal/singleflight"
	"doppelganger/internal/sweep"
	"doppelganger/internal/trace"
)

// ErrBadCell wraps cell validation failures (HTTP 400).
var ErrBadCell = errors.New("server: invalid cell")

// ErrDraining is returned once Drain has begun: admission is closed for good
// (HTTP 503); clients should fail over to another instance.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// errNoShard means candidate selection found nowhere to enqueue: every shard
// was dead, breaker-open or full.
var errNoShard = errors.New("server: no shard available (all dead, open or full)")

// OverloadError is a load-shedding refusal (HTTP 429): the token bucket ran
// dry or the queue budget is spent. RetryAfter is the server's own estimate
// of when capacity will exist — the Retry-After header, verbatim.
type OverloadError struct {
	RetryAfter time.Duration
	Reason     string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

// Config describes one Server. Zero values get the documented defaults.
type Config struct {
	// Scale sizes the workloads (required, positive).
	Scale float64
	// Cores is the CMP size (default 4, Table 1).
	Cores int
	// Only restricts the benchmark suite (figure jobs honor it too).
	Only []string

	// Shards is the number of worker pools (default 2); ShardWorkers the
	// goroutines per pool (default 2); QueueDepth each pool's buffered queue
	// (default 64).
	Shards       int
	ShardWorkers int
	QueueDepth   int
	// MaxQueue is the global shed budget: submissions beyond this many queued
	// jobs are refused with 429 (default Shards x QueueDepth).
	MaxQueue int

	// AdmitRate and AdmitBurst shape the token bucket (default 2000/s, burst
	// 1000). Memo cache hits spend tokens too: admission is the front door.
	AdmitRate  float64
	AdmitBurst float64

	// JobTimeout bounds one job end to end, retries included (default 120s).
	// Retries is how many times a failed dispatch re-runs beyond the first
	// attempt (default 2), sleeping RetryBackoff doubling per attempt
	// (default 50ms, capped at 2s). HedgeAfter, when positive, enqueues a
	// second copy of a silent job on the next ring candidate (first answer
	// wins; default off).
	JobTimeout   time.Duration
	Retries      int
	RetryBackoff time.Duration
	HedgeAfter   time.Duration

	// DrainTimeout bounds how long Drain waits for in-flight jobs before
	// snapshotting the stragglers into the state file (default 30s).
	DrainTimeout time.Duration
	// StatePath, when set, receives the drain state file (pending cells).
	StatePath string

	// Breaker configures each shard's circuit breaker; Budget 0 gets the
	// default (0.5: trip after repeated, not isolated, failures).
	Breaker quality.BreakerConfig

	// Fault/quality knobs, passed straight to every shard runner (results
	// are bit-identical across shards because all seeds derive from
	// (seed, task key), never worker identity).
	FaultRates    []float64
	FaultSeed     uint64
	FaultModel    faults.Model
	QualityBudget float64
	QualitySeed   uint64
	CanaryRate    float64

	// Trace-cache flags (the warm-trace deployment records once, then every
	// sweep replays). TraceVerify selects how hard the startup janitor
	// checks each capture before the server reports ready (default
	// trace.VerifyOff; the sweepd flag defaults to "open").
	TraceDir     string
	TraceCapture bool
	TraceReplay  bool
	TraceVerify  trace.VerifyMode

	// Checkpoint, when non-nil, persists every completed result and primes
	// every shard runner from already-loaded records (resume). The caller
	// owns and closes it.
	Checkpoint *sweep.Checkpoint

	// Metrics receives all server and simulation instruments (created if
	// nil). Log, when non-nil, receives progress lines from every shard.
	Metrics *metrics.Registry
	Log     io.Writer
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.ShardWorkers == 0 {
		c.ShardWorkers = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = c.Shards * c.QueueDepth
	}
	if c.AdmitRate == 0 {
		c.AdmitRate = 2000
	}
	if c.AdmitBurst == 0 {
		c.AdmitBurst = 1000
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 120 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Breaker.Budget == 0 {
		c.Breaker.Budget = 0.5
	}
	return c
}

// serverMetrics are the pre-resolved instruments on the submission path.
type serverMetrics struct {
	accepted, completed, failed *metrics.Counter
	cacheHits                   *metrics.Counter
	shedRate, shedQueue         *metrics.Counter
	rejectedDraining            *metrics.Counter
	hedges, retries             *metrics.Counter
	corrupt, panics, timeouts   *metrics.Counter
	breakerDenied, shardKills   *metrics.Counter
}

// Server is the sweep service: ring, shards, admission, result memo, drain
// state. Build with New, serve HTTP with Handler, stop with Drain + Close.
type Server struct {
	cfg   Config
	ring  *ring
	admit *tokenBucket

	shards []*shard

	// results is the content-addressed memo: one compute per content hash,
	// every concurrent submission of the same cell shares it. Failures are
	// forgotten, so a shed or failed job does not poison the key.
	results *singleflight.Memo[*Result]

	reg        *metrics.Registry
	m          serverMetrics
	latency    *metrics.Histogram
	depthGauge *metrics.Gauge

	queueDepth atomic.Int64
	draining   atomic.Bool

	pendingMu sync.Mutex
	pending   map[string]*pendingEntry

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// traceStore holds the opened (locked, scrubbed) trace directory for
	// the server's lifetime; nil without a TraceDir. degradedGauge mirrors
	// the trace.degraded counter so dashboards see degraded mode as a
	// level, not just a rate.
	traceStore    *trace.Store
	degradedGauge *metrics.Gauge

	chaos ChaosHooks
}

type pendingEntry struct {
	cell Cell
	n    int
}

// syncWriter serializes a shared log writer across shard runners (each
// runner serializes only its own lines).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// New builds and starts a server (its shard workers run until Close).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if !(cfg.Scale > 0) {
		return nil, fmt.Errorf("server: scale must be positive, got %v", cfg.Scale)
	}
	if cfg.Shards < 1 || cfg.ShardWorkers < 1 {
		return nil, fmt.Errorf("server: need at least one shard and one worker, got %d x %d", cfg.Shards, cfg.ShardWorkers)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	var log io.Writer
	if cfg.Log != nil {
		log = &syncWriter{w: cfg.Log}
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		ring:    newRing(cfg.Shards, defaultReplicas),
		admit:   newTokenBucket(cfg.AdmitRate, cfg.AdmitBurst),
		results: singleflight.New[*Result](),
		reg:     reg,
		pending: make(map[string]*pendingEntry),
		baseCtx: baseCtx,
		cancel:  cancel,
	}
	s.m = serverMetrics{
		accepted:         reg.Counter("server.jobs.accepted"),
		completed:        reg.Counter("server.jobs.completed"),
		failed:           reg.Counter("server.jobs.failed"),
		cacheHits:        reg.Counter("server.jobs.cache_hits"),
		shedRate:         reg.Counter("server.shed.rate"),
		shedQueue:        reg.Counter("server.shed.queue"),
		rejectedDraining: reg.Counter("server.rejected.draining"),
		hedges:           reg.Counter("server.dispatch.hedges"),
		retries:          reg.Counter("server.dispatch.retries"),
		corrupt:          reg.Counter("server.dispatch.corrupt"),
		panics:           reg.Counter("server.shard.panics"),
		timeouts:         reg.Counter("server.dispatch.timeouts"),
		breakerDenied:    reg.Counter("server.dispatch.breaker_denied"),
		shardKills:       reg.Counter("server.shard.kills"),
	}
	s.latency = reg.Histogram("server.latency_ms", []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000})
	s.depthGauge = reg.Gauge("server.queue_depth")
	s.degradedGauge = reg.Gauge("server.trace.degraded_cells")

	// Open (lock + scrub) the trace store before any shard worker starts
	// and before New returns — /readyz cannot say ready until the directory
	// has been swept of orphaned temp files and condemned captures.
	if cfg.TraceDir != "" {
		st, err := trace.OpenStore(trace.OS, cfg.TraceDir, cfg.TraceVerify)
		if err != nil {
			cancel()
			return nil, err
		}
		s.traceStore = st
		rep := st.Report
		if rep.Skipped {
			if log != nil {
				fmt.Fprintf(log, "trace store %s: scrub skipped (directory shared with a live process)\n", cfg.TraceDir)
			}
		} else {
			reg.Counter("trace.scrub.temps_removed").Add(uint64(rep.TempsRemoved))
			reg.Counter("trace.scrub.verified").Add(uint64(rep.Verified))
			reg.Counter("trace.scrub.quarantined").Add(uint64(rep.Quarantined))
			reg.Counter("trace.scrub.unreadable").Add(uint64(rep.Unreadable))
			if log != nil && (rep.TempsRemoved > 0 || rep.Quarantined > 0 || rep.Unreadable > 0) {
				fmt.Fprintf(log, "trace store %s: scrub removed %d temp(s), quarantined %d, %d unreadable (%d verified)\n",
					cfg.TraceDir, rep.TempsRemoved, rep.Quarantined, rep.Unreadable, rep.Verified)
			}
		}
	}

	for i := 0; i < cfg.Shards; i++ {
		r := sweep.NewRunner(cfg.Scale)
		r.Cores = cfg.Cores
		r.Only = cfg.Only
		r.Log = log
		r.Metrics = reg
		r.FaultRates = cfg.FaultRates
		r.FaultSeed = cfg.FaultSeed
		r.FaultModel = cfg.FaultModel
		r.QualityBudget = cfg.QualityBudget
		r.QualitySeed = cfg.QualitySeed
		r.CanaryRate = cfg.CanaryRate
		r.TraceDir = cfg.TraceDir
		r.TraceCapture = cfg.TraceCapture
		r.TraceReplay = cfg.TraceReplay
		r.Checkpoint = cfg.Checkpoint
		if cfg.Checkpoint != nil {
			r.Resume(cfg.Checkpoint)
		}
		breaker, err := quality.NewBreaker(cfg.Breaker)
		if err != nil {
			cancel()
			return nil, err
		}
		sctx, kill := context.WithCancel(baseCtx)
		sh := &shard{
			id:      i,
			runner:  r,
			breaker: breaker,
			jobs:    make(chan *job, cfg.QueueDepth),
			ctx:     sctx,
			kill:    kill,
		}
		s.shards = append(s.shards, sh)
	}
	for _, sh := range s.shards {
		for w := 0; w < cfg.ShardWorkers; w++ {
			s.wg.Add(1)
			go sh.loop(s)
		}
	}
	return s, nil
}

// SetChaos installs the chaos hooks (tests only; call before serving).
func (s *Server) SetChaos(h ChaosHooks) { s.chaos = h }

// KillShard marks a shard dead and cancels its in-flight simulations — the
// chaos test's shard crash. Dead shards fail queued jobs fast and are
// skipped by dispatch; the shard never comes back.
func (s *Server) KillShard(i int) {
	if i < 0 || i >= len(s.shards) {
		return
	}
	sh := s.shards[i]
	if sh.dead.CompareAndSwap(false, true) {
		sh.kill()
		s.m.shardKills.Inc()
	}
}

// contentHash is the result-memo key: the cell identity plus every knob that
// changes its bytes (scale, cores, seeds, budgets). A capture replays
// bit-identically to the live run it recorded, so the trace directory's
// contents are not part of the key, and a memo hit opens no file.
func (s *Server) contentHash(c Cell) string {
	budget := s.cfg.QualityBudget
	if budget == 0 {
		budget = sweep.DefaultQualityBudget
	}
	canary := s.cfg.CanaryRate
	if canary == 0 {
		canary = sweep.DefaultCanaryRate
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "sweepd1|%s|scale=%g|cores=%d|fseed=%d|fmodel=%s|qseed=%d|budget=%g|canary=%g",
		c.Key(), s.cfg.Scale, s.cfg.Cores, s.cfg.FaultSeed, s.cfg.FaultModel, s.cfg.QualitySeed, budget, canary)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Submit is the front door: validation, drain refusal, token-bucket
// admission, queue-budget shedding, then the memoized dispatch.
func (s *Server) Submit(ctx context.Context, c Cell) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCell, err)
	}
	if s.draining.Load() {
		s.m.rejectedDraining.Inc()
		return nil, ErrDraining
	}
	if ok, retry := s.admit.admit(); !ok {
		s.m.shedRate.Inc()
		return nil, &OverloadError{RetryAfter: retry, Reason: "admission rate"}
	}
	if depth := s.queueDepth.Load(); depth >= int64(s.cfg.MaxQueue) {
		s.m.shedQueue.Inc()
		return nil, &OverloadError{RetryAfter: 250 * time.Millisecond, Reason: "queue depth"}
	}
	return s.SubmitLocal(ctx, c)
}

// SubmitLocal is Submit without admission control: the resume path (cells
// re-entering from a drain state file) and in-process tests use it. The job
// is tracked as pending from acceptance to response — the drain snapshot is
// exactly this set.
func (s *Server) SubmitLocal(ctx context.Context, c Cell) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCell, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := c.Key()
	s.addPending(key, c)
	defer s.removePending(key)
	s.m.accepted.Inc()
	start := time.Now()
	hash := s.contentHash(c)
	computed := false
	res, err := s.results.Do(hash, func() (*Result, error) {
		computed = true
		// The dispatch context is the server's, not the submitter's: a
		// canceled client must not fail the compute out from under the other
		// singleflight waiters.
		jctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
		defer cancel()
		payload, sum, shardID, err := s.dispatch(jctx, c, key)
		if err != nil {
			return nil, err
		}
		return &Result{Key: key, Hash: hash, Payload: payload, Sum: sum, Shard: shardID}, nil
	})
	if err != nil {
		s.m.failed.Inc()
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

// maxRetryBackoff caps the exponential retry sleep.
const maxRetryBackoff = 2 * time.Second

// dispatch runs the bounded-retry loop around attempt: exponential backoff
// between attempts, each attempt starting one candidate further around the
// ring so a persistently bad primary cannot eat the whole budget.
func (s *Server) dispatch(ctx context.Context, c Cell, key string) ([]byte, uint64, int, error) {
	backoff := s.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= s.cfg.Retries; attempt++ {
		if attempt > 0 {
			s.m.retries.Inc()
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				s.m.timeouts.Inc()
				return nil, 0, -1, fmt.Errorf("server: job %s deadline during retry backoff: %w (last error: %v)", key, ctx.Err(), lastErr)
			}
			if backoff *= 2; backoff > maxRetryBackoff {
				backoff = maxRetryBackoff
			}
		}
		payload, sum, shardID, err := s.attempt(ctx, c, key, attempt)
		if err == nil {
			return payload, sum, shardID, nil
		}
		// A later "no shard available" (breakers now open, queues full) must
		// not mask the failure that opened them.
		if !errors.Is(err, errNoShard) || lastErr == nil {
			lastErr = err
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, 0, -1, fmt.Errorf("server: job %s failed after %d attempt(s): %w", key, s.cfg.Retries+1, lastErr)
}

// attempt runs one dispatch round: enqueue on the first live, breaker-
// allowed, non-full candidate in ring order; hedge onto the next one if the
// answer is slow; verify the payload checksum on receipt. Corrupt or failed
// outcomes feed the shard's breaker and fall through to the next candidate.
func (s *Server) attempt(ctx context.Context, c Cell, key string, rotation int) ([]byte, uint64, int, error) {
	seq := s.ring.order(c.RouteKey())
	if len(seq) == 0 {
		return nil, 0, -1, errors.New("server: no shards")
	}
	rot := rotation % len(seq)
	seq = append(append(make([]int, 0, len(seq)), seq[rot:]...), seq[:rot]...)

	done := make(chan outcome, len(seq))
	next, inflight := 0, 0
	var lastErr error
	launch := func() bool {
		for next < len(seq) {
			sh := s.shards[seq[next]]
			next++
			if sh.dead.Load() {
				continue
			}
			if !sh.breaker.Allow() {
				s.m.breakerDenied.Inc()
				continue
			}
			if err := sh.enqueue(s, &job{cell: c, key: key, ctx: ctx, done: done}); err != nil {
				lastErr = err
				continue
			}
			inflight++
			return true
		}
		return false
	}
	if !launch() {
		if lastErr == nil {
			lastErr = errNoShard
		}
		return nil, 0, -1, lastErr
	}
	var hedgeC <-chan time.Time
	if s.cfg.HedgeAfter > 0 {
		hedge := time.NewTimer(s.cfg.HedgeAfter)
		defer hedge.Stop()
		hedgeC = hedge.C
	}
	for {
		select {
		case out := <-done:
			inflight--
			if out.err == nil {
				if checksum(out.payload) != out.sum {
					s.m.corrupt.Inc()
					s.shards[out.shard].breaker.Observe(1)
					lastErr = fmt.Errorf("server: shard %d returned a corrupt payload for %s (checksum mismatch)", out.shard, key)
				} else {
					s.shards[out.shard].breaker.Observe(0)
					return out.payload, out.sum, out.shard, nil
				}
			} else {
				lastErr = out.err
				if !errors.Is(out.err, errShardDead) {
					// Dead shards are already quarantined; everything else
					// (panic, timeout, simulation error) counts against the
					// breaker.
					s.shards[out.shard].breaker.Observe(1)
				}
			}
			if inflight == 0 && !launch() {
				return nil, 0, -1, lastErr
			}
		case <-hedgeC:
			if launch() {
				s.m.hedges.Inc()
			}
		case <-ctx.Done():
			s.m.timeouts.Inc()
			return nil, 0, -1, fmt.Errorf("server: job %s deadline exceeded: %w", key, ctx.Err())
		}
	}
}

func (s *Server) addPending(key string, c Cell) {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	e := s.pending[key]
	if e == nil {
		e = &pendingEntry{cell: c}
		s.pending[key] = e
	}
	e.n++
}

func (s *Server) removePending(key string) {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	if e := s.pending[key]; e != nil {
		if e.n--; e.n <= 0 {
			delete(s.pending, key)
		}
	}
}

func (s *Server) pendingCount() int {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	return len(s.pending)
}

// pendingCells snapshots the accepted-but-unanswered cells, sorted by key
// for a deterministic state file.
func (s *Server) pendingCells() []Cell {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	keys := make([]string, 0, len(s.pending))
	for k := range s.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cells := make([]Cell, 0, len(keys))
	for _, k := range keys {
		cells = append(cells, s.pending[k].cell)
	}
	return cells
}

// Draining reports whether Drain has begun (readyz turns 503).
func (s *Server) Draining() bool { return s.draining.Load() }

// Ready reports whether the server can accept work: not draining, and at
// least one shard alive with its breaker not open.
func (s *Server) Ready() bool {
	if s.draining.Load() {
		return false
	}
	for _, sh := range s.shards {
		if !sh.dead.Load() && sh.breaker.State() != quality.Open {
			return true
		}
	}
	return false
}

// StateVersion is the drain state file's schema version.
const StateVersion = 1

// stateFile is the drain snapshot: the cells that were accepted but not
// answered when the drain deadline hit. -resume re-submits them.
type stateFile struct {
	Version int    `json:"version"`
	Pending []Cell `json:"pending"`
}

// WriteState writes the drain snapshot atomically (temp file + rename), so
// a crash mid-write can never leave a torn state file.
func WriteState(path string, cells []Cell) error {
	if cells == nil {
		cells = []Cell{}
	}
	b, err := json.MarshalIndent(stateFile{Version: StateVersion, Pending: cells}, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadState reads a drain snapshot, enforcing the schema version.
func LoadState(path string) ([]Cell, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st stateFile
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("server: state file %s: %v (not a drain state file?)", path, err)
	}
	if st.Version != StateVersion {
		return nil, fmt.Errorf("server: state file %s is version %d, this binary reads %d", path, st.Version, StateVersion)
	}
	return st.Pending, nil
}

// Drain is the SIGTERM path: stop admission for good, wait (up to
// DrainTimeout) for in-flight jobs to finish — every completed one is
// already in the checkpoint — then snapshot whatever is left into the state
// file and cancel the stragglers. Returns the leftover cells. Idempotent:
// later calls return immediately.
func (s *Server) Drain(ctx context.Context) ([]Cell, error) {
	if !s.draining.CompareAndSwap(false, true) {
		return nil, nil
	}
	timeout := time.NewTimer(s.cfg.DrainTimeout)
	defer timeout.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
wait:
	for s.pendingCount() > 0 {
		select {
		case <-tick.C:
		case <-timeout.C:
			break wait
		case <-ctx.Done():
			break wait
		}
	}
	left := s.pendingCells()
	var err error
	if s.cfg.StatePath != "" {
		err = WriteState(s.cfg.StatePath, left)
	}
	// Abort the stragglers so their HTTP handlers return and the listener's
	// Shutdown can complete; their cells are safe in the state file.
	if len(left) > 0 {
		s.cancel()
	}
	return left, err
}

// Close hard-stops the server (workers exit, in-flight jobs abort) and
// releases the trace-store lock. Drain first for a graceful exit.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	if s.traceStore != nil {
		s.traceStore.Close()
	}
}

// Computes reports how many distinct results were actually computed (the
// exactly-once ledger the chaos test audits).
func (s *Server) Computes() int64 { return s.results.Computes() }

// Metrics exposes the server's registry (the /metrics endpoint renders it).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// ShardStats is one shard's health snapshot.
type ShardStats struct {
	ID        int     `json:"id"`
	Dead      bool    `json:"dead"`
	State     string  `json:"breaker_state"`
	Estimate  float64 `json:"breaker_estimate"`
	Trips     uint64  `json:"breaker_trips"`
	Reentries uint64  `json:"breaker_reentries"`
	Queue     int     `json:"queue"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	Draining   bool   `json:"draining"`
	Ready      bool   `json:"ready"`
	QueueDepth int64  `json:"queue_depth"`
	Pending    int    `json:"pending"`
	Accepted   uint64 `json:"accepted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	CacheHits  uint64 `json:"cache_hits"`
	Computes   int64  `json:"computes"`
	ShedRate   uint64 `json:"shed_rate"`
	ShedQueue  uint64 `json:"shed_queue"`
	Hedges     uint64 `json:"hedges"`
	Retries    uint64 `json:"retries"`
	Corrupt    uint64 `json:"corrupt"`
	Panics     uint64 `json:"panics"`

	// Trace-store health: replayed/recorded captures, captures condemned to
	// quarantine (then transparently re-recorded), and cells that degraded
	// to live execution because the store was unavailable. TraceScrub is
	// what the startup janitor did (nil without a trace dir).
	TraceReplays     uint64             `json:"trace_replays,omitempty"`
	TraceRecords     uint64             `json:"trace_records,omitempty"`
	TraceQuarantined uint64             `json:"trace_quarantined,omitempty"`
	TraceDegraded    uint64             `json:"trace_degraded,omitempty"`
	TraceScrub       *trace.ScrubReport `json:"trace_scrub,omitempty"`

	Shards []ShardStats `json:"shards"`
}

// Stats snapshots the server's health.
func (s *Server) Stats() Stats {
	st := Stats{
		Draining:   s.draining.Load(),
		Ready:      s.Ready(),
		QueueDepth: s.queueDepth.Load(),
		Pending:    s.pendingCount(),
		Accepted:   s.m.accepted.Value(),
		Completed:  s.m.completed.Value(),
		Failed:     s.m.failed.Value(),
		CacheHits:  s.m.cacheHits.Value(),
		Computes:   s.Computes(),
		ShedRate:   s.m.shedRate.Value(),
		ShedQueue:  s.m.shedQueue.Value(),
		Hedges:     s.m.hedges.Value(),
		Retries:    s.m.retries.Value(),
		Corrupt:    s.m.corrupt.Value(),
		Panics:     s.m.panics.Value(),

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
	for _, sh := range s.shards {
		st.Shards = append(st.Shards, ShardStats{
			ID:        sh.id,
			Dead:      sh.dead.Load(),
			State:     sh.breaker.State().String(),
			Estimate:  sh.breaker.Estimate(),
			Trips:     sh.breaker.Trips(),
			Reentries: sh.breaker.Reentries(),
			Queue:     len(sh.jobs),
		})
	}
	return st
}
