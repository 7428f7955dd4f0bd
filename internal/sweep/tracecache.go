package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

// The sweep's trace cache: every functional cell records its own capture the
// first time it runs live, and every later sweep over the same trace
// directory replays the capture instead of executing kernels. Recording
// per cell (rather than only the precise baseline) is what makes replay
// bit-identical: approximate load values propagate through kernel
// arithmetic into store payloads, so an approximate cell's access stream
// differs from the baseline's and must be captured from the cell itself.
//
// Captures are keyed by a full identity string (cell key + scale + cores +
// any seeds or knobs the cell's result depends on). The identity is stored
// in the file header and re-checked on load, so a capture recorded under a
// different configuration is stale and is re-recorded (or, under
// -trace-replay, rejected with an actionable error) rather than silently
// replayed.

// funcReq describes one functional cell to funcRun: its memo key, the
// benchmark, any identity the key doesn't already carry (seeds, budgets),
// the LLC organization, and the run options. fast marks cells that consume
// only the run's output: on a warm cache they are served straight from the
// capture without rebuilding a hierarchy (their attachments see no traffic
// and their metrics snapshots stay empty).
type funcReq struct {
	key   string
	name  string
	extra string // identity beyond key/scale/cores, "|k=v" formatted
	seed  uint64 // recorded in the file header (0 when the cell is unseeded)
	llcb  workloads.LLCBuilder
	opt   workloads.RunOptions
	fast  bool
}

// traceIdent is the full identity a capture must match to be replayed for
// this request. Cells the CLI facade can also run (baseline, split, uni)
// use the same keys, so doppelsim and a sweep share captures in one
// directory.
func (r *Runner) traceIdent(req funcReq) string {
	return workloads.CaptureIdent(req.key, r.Scale, r.Cores, req.extra)
}

// tracePath maps an identity to its file in the trace directory.
func (r *Runner) tracePath(ident string) string {
	return workloads.CapturePath(r.TraceDir, ident)
}

// traceFS is the filesystem the trace cache runs on: the injected seam
// when chaos tests set one, the real OS otherwise.
func (r *Runner) traceFS() trace.FS {
	if r.TraceFS != nil {
		return r.TraceFS
	}
	return trace.OS
}

// CellCaptureIdent maps one sweep cell (the server's wire vocabulary) to
// the identity of the capture its functional work replays, so the sweep
// server can route cells by trace digest: cells that replay the same file
// land on the shard whose decoded cache already holds it. Timing cells
// replay the benchmark's baseline recorder, so they map to the baseline
// capture — co-locating a benchmark's timing cells with its baseline. ok is
// false for cells with no single capture (whole figures, unknown kinds).
func (r *Runner) CellCaptureIdent(kind, bench, org string, m int, frac, rate float64) (string, bool) {
	var key, extra string
	switch kind {
	case "split-error":
		key = fmt.Sprintf("split/%s/%d/%g", bench, m, frac)
	case "uni-error":
		key = fmt.Sprintf("uni/%s/%d/%g", bench, m, frac)
	case "fault-error":
		key = fmt.Sprintf("fault/%s/%s/%g", org, bench, rate)
		extra = fmt.Sprintf("|fseed=%d|fmodel=%s", r.FaultSeed, r.FaultModel)
	case "quality-error":
		key = fmt.Sprintf("quality/%s/%s/%g", org, bench, rate)
		extra = fmt.Sprintf("|fseed=%d|fmodel=%s|qseed=%d|budget=%g|canary=%g",
			r.FaultSeed, r.FaultModel, r.QualitySeed, r.qualityBudget(), r.canaryRate())
	case "split-timing", "uni-timing", "baseline-timing", "quality-timing":
		key = "base/" + bench
	default:
		return "", false
	}
	return workloads.CaptureIdent(key, r.Scale, r.Cores, extra), true
}

// decodedHit probes the shared decoded-capture cache for the capture at
// path. The probe reads only the file's 16-byte digest preamble, and a
// resident capture is served only if it was recorded under ident and this
// Runner's core count; anything else is a miss (nil).
func (r *Runner) decodedHit(fsys trace.FS, path, ident string) *trace.Capture {
	d, err := trace.FileDigestFS(fsys, path)
	if err != nil {
		return nil
	}
	if c := r.DecodedCache.Get(d); c != nil && c.Header.ConfigKey == ident && c.Header.Cores == r.Cores {
		return c
	}
	return nil
}

// loadDecoded serves the fully decoded capture for ident from the shared
// decoded-capture cache, falling back to — and populating the cache from —
// the on-disk store. Any miss (cold directory, stale or corrupt capture,
// storage trouble) returns nil and leaves recovery to the caller's full
// path; a quarantined file is counted and moved here, exactly as funcRun
// would have, so net trace.* counters match a run without the shortcut.
func (r *Runner) loadDecoded(ident string) *trace.Capture {
	if r.DecodedCache == nil || r.TraceDir == "" {
		return nil
	}
	fsys := r.traceFS()
	path := r.tracePath(ident)
	if c := r.decodedHit(fsys, path, ident); c != nil {
		return c
	}
	c, outcome, err := workloads.LoadCaptureRecover(fsys, r.TraceDir, path, ident, r.Cores, false)
	switch outcome {
	case workloads.LoadOK:
		r.DecodedCache.Put(c.FileCRC, c)
		return c
	case workloads.LoadQuarantined:
		r.Metrics.Counter("trace.quarantines").Add(1)
		r.logf("capture %s unusable (%v); quarantined for re-recording", filepath.Base(path), err)
	}
	return nil
}

// funcRun is the gateway every functional cell goes through. Without a
// trace directory it is exactly the live path. With one, the first run of a
// cell executes live (recording) and persists a capture; later runs replay
// it: output-only cells are served from the embedded output, and cells that
// need cache-state side effects (baseline snapshots, quality guards) replay
// the stream through a fresh hierarchy, which evolves bit-identically to
// the live run.
//
// funcRun keeps no memo of its own: every caller already runs inside the
// singleflight memo of the cell the capture identity is built from, so a
// capture is loaded (or recorded) once per cell computation.
//
// Storage faults never fail a cell (outside -trace-replay): a corrupt or
// stale capture is quarantined and transparently re-recorded, and an
// unavailable store — read errors, ENOSPC, unwritable dir — degrades the
// cell to plain live execution, counted in the trace.degraded metric.
// Either way the cell's row is bit-identical to a clean run's. A failure of
// the live run itself still propagates, and the cell memos forget errors,
// so a retry re-records instead of replaying a poisoned entry.
func (r *Runner) funcRun(ctx context.Context, req funcReq) (*workloads.RunResult, error) {
	f, err := workloads.ByName(req.name)
	if err != nil {
		return nil, err
	}
	if r.TraceDir == "" {
		return workloads.RunFunctionalContext(ctx, f.New(r.Scale), req.llcb, req.opt)
	}
	fsys := r.traceFS()
	ident := r.traceIdent(req)
	path := r.tracePath(ident)
	// Output-only cells never rebuild a hierarchy, so they load with the
	// output-only decode, which skips materializing the memory image and
	// trace streams (the file is still fully integrity-checked). They also
	// stay out of the shared decoded cache: it holds the captures a
	// hierarchy replay walks again. An ident's fast-ness never varies
	// between requests, so the decoded cache never hands a lite capture to
	// a hierarchy replay.
	decoded := r.DecodedCache != nil && !req.fast
	persist := true
	if !r.TraceCapture {
		var c *trace.Capture
		if decoded {
			// Another Runner (or an earlier sweep over this Runner's cache)
			// may already have decoded this file.
			if c = r.decodedHit(fsys, path, ident); c != nil {
				r.logf("[%s] replaying decoded capture %s (%s)", req.name, filepath.Base(path), req.key)
			}
		}
		if c == nil {
			var outcome workloads.LoadOutcome
			c, outcome, err = workloads.LoadCaptureRecover(fsys, r.TraceDir, path, ident, r.Cores, req.fast)
			if r.TraceReplay && outcome != workloads.LoadOK {
				if err == nil {
					err = os.ErrNotExist
				}
				return nil, fmt.Errorf("sweep: -trace-replay: no usable capture for %s: %w", req.key, err)
			}
			switch outcome {
			case workloads.LoadOK:
				r.logf("[%s] replaying capture %s (%s)", req.name, filepath.Base(path), req.key)
				if decoded {
					r.DecodedCache.Put(c.FileCRC, c)
				}
			case workloads.LoadMiss:
				// Cold cache: record below.
			case workloads.LoadQuarantined:
				r.Metrics.Counter("trace.quarantines").Add(1)
				r.logf("[%s] capture %s unusable (%v); re-recording", req.name, filepath.Base(path), err)
			case workloads.LoadUnavailable:
				// The bytes may be fine but the I/O path is not: leave the
				// file alone, run live, and don't trust the store with a
				// new write either.
				persist = false
				r.Metrics.Counter("trace.degraded").Add(1)
				r.logf("[%s] trace store unavailable (%v); running %s live unrecorded", req.name, err, req.key)
			}
		}
		if c != nil {
			r.Metrics.Counter("trace.replays").Add(1)
			if req.fast {
				return &workloads.RunResult{Output: c.Output}, nil
			}
			return workloads.ReplayFunctionalContext(ctx, f.New(r.Scale), c, req.llcb, req.opt)
		}
	}
	opt := req.opt
	opt.Record = true
	run, err := workloads.RunFunctionalContext(ctx, f.New(r.Scale), req.llcb, opt)
	if err != nil {
		return nil, err
	}
	c, err := workloads.CaptureOf(run, trace.FileHeader{
		Benchmark: req.name,
		Scale:     r.Scale,
		Cores:     r.Cores,
		Seed:      req.seed,
		ConfigKey: ident,
	})
	if err != nil {
		return nil, err
	}
	if persist {
		if err := persistCapture(fsys, r.TraceDir, path, c); err != nil {
			// Graceful degradation: the cell's live result is complete and
			// bit-identical to what a recorded run would produce — losing
			// the capture only costs the next sweep a re-record.
			r.Metrics.Counter("trace.degraded").Add(1)
			r.logf("[%s] capture %s not persisted (%v); serving live result", req.name, filepath.Base(path), err)
		} else {
			r.Metrics.Counter("trace.records").Add(1)
			if decoded {
				// WriteFileFS stamped c.FileCRC; the freshly recorded
				// capture is immediately servable to other Runners.
				r.DecodedCache.Put(c.FileCRC, c)
			}
		}
	}
	// The live run already carries every side effect (snapshots, metrics,
	// guard state).
	return run, nil
}

// persistCapture commits one freshly recorded capture: ensure the
// directory, then the atomic durable write.
func persistCapture(fsys trace.FS, dir, path string, c *trace.Capture) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("sweep: trace dir: %w", err)
	}
	return c.WriteFileFS(fsys, path)
}
