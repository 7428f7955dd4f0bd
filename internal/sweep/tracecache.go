package sweep

import (
	"context"
	"fmt"

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

// traceGateway is the Runner's trace directory as the shared capture
// gateway sees it.
func (r *Runner) traceGateway() *workloads.CaptureGateway {
	return &workloads.CaptureGateway{
		Dir:     r.TraceDir,
		FS:      r.TraceFS,
		Replay:  r.TraceReplay,
		Metrics: r.Metrics,
		Logf:    r.logf,
	}
}

// captureIdent is the identity of the capture a cell's functional work
// replays: a functional cell's own, with the seeds and budgets its result
// depends on beyond its key, and the baseline's for a timing cell, which
// replays the baseline recorder. ok is false for a figure, which has no
// single capture, and for an unknown kind.
func (r *Runner) captureIdent(c Cell) (ident string, ok bool) {
	var extra string
	switch c.Kind {
	case "split-error", "uni-error", "custom-error":
	case "fault-error", "quality-error":
		extra = fmt.Sprintf("|fseed=%d|fmodel=%s", r.FaultSeed, r.FaultModel)
		if c.Kind == "quality-error" {
			extra += fmt.Sprintf("|qseed=%d|budget=%g|canary=%g", r.QualitySeed, r.qualityBudget(), r.canaryRate())
		}
	case "split-timing", "uni-timing", "custom-timing", "quality-timing", "baseline-timing":
		c = Cell{Kind: "baseline-timing", Bench: c.Bench}
	default:
		return "", false
	}
	return workloads.CaptureIdent(c.memoKey(), r.Scale, r.Cores, extra), true
}

// CellCaptureIdent is captureIdent for the cell these fields name.
// perfbench's traced serve drive is its last caller.
func (r *Runner) CellCaptureIdent(kind, bench, org string, m int, frac, rate float64) (string, bool) {
	return r.captureIdent(Cell{Kind: kind, Bench: bench, Org: org, M: m, Frac: frac, Rate: rate})
}

// funcRun is the gateway every functional run goes through (see
// workloads.CaptureGateway): live without a trace directory, and with one,
// replay of the cell's capture or a live run that records it. outputOnly
// marks a run whose caller reads only the output: on a warm cache it is
// served straight from the capture without rebuilding a hierarchy (its
// attachments see no traffic and its metrics snapshots stay empty).
//
// funcRun keeps no memo of its own: every caller already runs inside the
// singleflight memo of the cell the capture identity is built from, so a
// capture is loaded (or recorded) once per cell computation. The cell memos
// forget errors, so a retry after a failed live run re-records instead of
// replaying a poisoned entry.
func (r *Runner) funcRun(ctx context.Context, c Cell, llcb workloads.LLCBuilder, opt workloads.RunOptions, outputOnly bool) (*workloads.RunResult, error) {
	f, err := workloads.ByName(c.Bench)
	if err != nil {
		return nil, err
	}
	ident, _ := r.captureIdent(c)
	return r.traceGateway().Run(ctx, workloads.CaptureCell{
		Key: c.memoKey(),
		Header: trace.FileHeader{
			Benchmark: c.Bench,
			Scale:     r.Scale,
			Cores:     r.Cores,
			Seed:      r.faultSeed(c),
			// Cells the CLI facade can also run (baseline, split, uni) use
			// the same keys, so doppelsim and a sweep share captures in one
			// directory.
			ConfigKey: ident,
		},
		OutputOnly: outputOnly,
	}, f.New(r.Scale), llcb, opt)
}
