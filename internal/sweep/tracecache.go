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

// traceGateway is the Runner's trace directory as the shared capture
// gateway sees it.
func (r *Runner) traceGateway() *workloads.CaptureGateway {
	return &workloads.CaptureGateway{
		Dir:     r.TraceDir,
		FS:      r.TraceFS,
		Capture: r.TraceCapture,
		Replay:  r.TraceReplay,
		Metrics: r.Metrics,
		Logf:    r.logf,
	}
}

// CellCaptureIdent maps one sweep cell (the server's wire vocabulary) to
// the identity of the capture its functional work replays. Timing cells
// replay the benchmark's baseline recorder, so they map to the baseline
// capture. ok is false for cells with no single capture (whole figures,
// unknown kinds). perfbench's traced serve drive is its last caller.
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

// funcRun is the gateway every functional cell goes through (see
// workloads.CaptureGateway): live without a trace directory, and with one,
// replay of the cell's capture or a live run that records it.
//
// funcRun keeps no memo of its own: every caller already runs inside the
// singleflight memo of the cell the capture identity is built from, so a
// capture is loaded (or recorded) once per cell computation. The cell memos
// forget errors, so a retry after a failed live run re-records instead of
// replaying a poisoned entry.
func (r *Runner) funcRun(ctx context.Context, req funcReq) (*workloads.RunResult, error) {
	f, err := workloads.ByName(req.name)
	if err != nil {
		return nil, err
	}
	return r.traceGateway().Run(ctx, workloads.CaptureCell{
		Key: req.key,
		Header: trace.FileHeader{
			Benchmark: req.name,
			Scale:     r.Scale,
			Cores:     r.Cores,
			Seed:      req.seed,
			// Cells the CLI facade can also run (baseline, split, uni) use
			// the same keys, so doppelsim and a sweep share captures in one
			// directory.
			ConfigKey: workloads.CaptureIdent(req.key, r.Scale, r.Cores, req.extra),
		},
		OutputOnly: req.fast,
	}, f.New(r.Scale), req.llcb, req.opt)
}
