package sweep

import (
	"context"
	"fmt"
	"slices"

	"doppelganger/internal/timesim"
	"doppelganger/internal/workloads"
)

// Cell names one unit of sweep work: a single memoized simulation result or
// a whole experiment. It is the one vocabulary of the evaluation grid:
// Prewarm expands a Grid into cells, Run computes one, its Key names the
// result in the Runner's memo, the checkpoint and sweepd's memo, and its
// JSON form is sweepd's POST /v1/jobs request body.
type Cell struct {
	// Kind selects the computation:
	//   split-error, split-timing    — split Doppelgänger at (M, Frac)
	//   uni-error, uni-timing        — uniDoppelgänger at (M, Frac)
	//   fault-error                  — Org under injection at Rate
	//   quality-error                — guarded run of Org at Rate
	//   quality-timing               — timing replay of Org at Rate (Guarded?)
	//   baseline-timing              — the precise baseline timing run
	//   figure                       — a whole experiment table (Figure)
	//   custom-error, custom-timing  — an extras configuration (Custom)
	Kind  string  `json:"kind"`
	Bench string  `json:"bench,omitempty"`
	M     int     `json:"m,omitempty"`
	Frac  float64 `json:"frac,omitempty"`
	Org   string  `json:"org,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
	// Guarded selects guard-on vs guard-off for quality-timing.
	Guarded bool `json:"guarded,omitempty"`
	// Figure names the experiment for Kind "figure": the Name of an entry
	// of Experiments.
	Figure string `json:"figure,omitempty"`
	// Custom names the extras configuration of a custom cell (see
	// extrasConfigs). It has no JSON form and Validate refuses the custom
	// kinds, so the extras stay off the wire.
	Custom string `json:"-"`
}

// Validate rejects the cells sweepd must refuse: the ones the runner could
// only fail on mid-simulation, with a message that names the offending
// field (the flagcheck discipline applied to the wire), and the custom
// kinds.
func (c Cell) Validate() error {
	if c.Kind != "figure" {
		if _, err := workloads.ByName(c.Bench); err != nil {
			return fmt.Errorf("cell bench: %v", err)
		}
	}
	switch c.Kind {
	case "split-error", "split-timing", "uni-error", "uni-timing":
		if c.M < 1 || c.M > 32 {
			return fmt.Errorf("cell m must be between 1 and 32 bits, got %d", c.M)
		}
		if !(c.Frac > 0 && c.Frac <= 1) {
			return fmt.Errorf("cell frac must be in (0,1], got %v", c.Frac)
		}
		// The builders would panic on a geometry the data array cannot hold
		// (entries not divisible by ways); refuse it at the front door instead
		// of letting it look like a crash.
		geo := workloads.SplitDoppelConfig(c.M, c.Frac)
		if c.Kind == "uni-error" || c.Kind == "uni-timing" {
			geo = workloads.UnifiedDoppelConfig(c.M, c.Frac)
		}
		if err := geo.Validate(); err != nil {
			return fmt.Errorf("cell m/frac geometry: %v", err)
		}
	case "fault-error", "quality-error", "quality-timing":
		orgs := GuardedOrgs
		if c.Kind == "fault-error" {
			orgs = FaultOrgs
		}
		if !slices.Contains(orgs, c.Org) {
			return fmt.Errorf("cell org %q unknown (want one of %v)", c.Org, orgs)
		}
		if !(c.Rate >= 0 && c.Rate <= 1) {
			return fmt.Errorf("cell rate must be a probability in [0,1], got %v", c.Rate)
		}
	case "baseline-timing":
	case "figure":
		if _, ok := ExperimentByName(c.Figure); !ok {
			return fmt.Errorf("cell figure %q unknown", c.Figure)
		}
	default:
		return fmt.Errorf("cell kind %q unknown", c.Kind)
	}
	return nil
}

// Key returns the cell's unique identity: the Runner's memo key with the
// checkpoint's result-kind suffix, so sweepd's memo, checkpoint records
// and the Runner's caches all speak the same names.
func (c Cell) Key() string {
	switch c.Kind {
	case "split-error", "uni-error", "fault-error", "custom-error":
		return c.memoKey() + "/error"
	case "quality-error":
		return c.memoKey() + "/quality"
	case "split-timing", "uni-timing", "custom-timing", "quality-timing", "baseline-timing":
		return c.memoKey() + "/timing"
	}
	return c.memoKey()
}

// memoKey is the key of the cell's result in the Runner's memo and its
// checkpoint record, and the key its capture identity is built from. The
// error and timing cells of one configuration share it; their results
// live in different caches.
func (c Cell) memoKey() string {
	switch c.Kind {
	case "split-error", "split-timing":
		return fmt.Sprintf("split/%s/%d/%g", c.Bench, c.M, c.Frac)
	case "uni-error", "uni-timing":
		return fmt.Sprintf("uni/%s/%d/%g", c.Bench, c.M, c.Frac)
	case "custom-error", "custom-timing":
		return fmt.Sprintf("custom/%s/%s", c.Bench, c.Custom)
	case "fault-error":
		return fmt.Sprintf("fault/%s/%s/%g", c.Org, c.Bench, c.Rate)
	case "quality-error":
		return fmt.Sprintf("quality/%s/%s/%g", c.Org, c.Bench, c.Rate)
	case "quality-timing":
		mode := "time-off"
		if c.Guarded {
			mode = "time-on"
		}
		c.Kind = "quality-error"
		return c.memoKey() + "/" + mode
	case "baseline-timing":
		return "base/" + c.Bench
	case "figure":
		return "figure/" + c.Figure
	}
	return "invalid/" + c.Kind
}

// faultKey is the string the cell's fault injector is seeded from, with
// the Runner's FaultSeed. A guarded functional run shares its unguarded
// fault-error twin's stream, so until the breaker first trips the two runs
// see the same faults, and both quality-timing modes share one stream.
func (c Cell) faultKey() string {
	switch c.Kind {
	case "quality-error":
		c.Kind = "fault-error"
	case "quality-timing":
		c.Kind = "quality-error"
		return c.memoKey() + "/time"
	}
	return c.memoKey()
}

// faulted reports whether the cell runs under fault injection.
func (c Cell) faulted() bool {
	return c.Kind == "fault-error" || c.Kind == "quality-error" || c.Kind == "quality-timing"
}

// guarded reports whether the cell runs under the quality guard.
func (c Cell) guarded() bool {
	return c.Kind == "quality-error" || c.Kind == "quality-timing" && c.Guarded
}

// builder returns the LLC organization the cell simulates. The fault and
// quality kinds compare the conventional baseline, the split design at the
// base configuration and uniDoppelgänger at its Table 1 half-capacity
// point.
func (c Cell) builder() (workloads.LLCBuilder, error) {
	switch c.Kind {
	case "split-error", "split-timing":
		return workloads.SplitBuilder(c.M, c.Frac), nil
	case "uni-error", "uni-timing":
		return workloads.UnifiedBuilder(c.M, c.Frac), nil
	case "custom-error", "custom-timing":
		for _, x := range extrasConfigs() {
			if x.tag == c.Custom {
				return workloads.CustomSplitBuilder(x.cfg), nil
			}
		}
		return nil, fmt.Errorf("sweep: unknown extras configuration %q", c.Custom)
	case "fault-error", "quality-error", "quality-timing":
		switch c.Org {
		case "baseline":
			return workloads.BaselineBuilder(2<<20, 16), nil
		case "doppel":
			return workloads.SplitBuilder(BaseMapBits, BaseDataFrac), nil
		case "uni":
			return workloads.UnifiedBuilder(BaseMapBits, 0.5), nil
		}
		return nil, fmt.Errorf("sweep: unknown fault-sweep organization %q", c.Org)
	}
	return nil, fmt.Errorf("sweep: cell kind %q unknown", c.Kind)
}

// CellResult is what Run computes for one cell: the field its Kind names.
type CellResult struct {
	// Error is the output error of an -error cell other than quality-error.
	Error float64
	// Timing is the timing result of a -timing cell.
	Timing *timesim.Result
	// Quality is the guarded outcome of a quality-error cell.
	Quality *QualityOutcome
	// Tables are a figure cell's rendered tables.
	Tables []*Table
}

// Run computes one cell, memoized and checkpointed like every result the
// Runner holds, under ctx: a cancellation or deadline aborts its
// simulations promptly. Every functional cell takes the one functional
// path, and every timing cell other than the baseline's the one
// timing-replay path. A figure cell first computes its experiment's grid
// under ctx, then renders it from the warm caches.
func (r *Runner) Run(ctx context.Context, c Cell) (CellResult, error) {
	var res CellResult
	var err error
	switch c.Kind {
	case "split-error", "uni-error", "fault-error", "custom-error":
		res.Error, err = r.cellError(ctx, c)
	case "quality-error":
		res.Quality, err = r.guardedError(ctx, c)
	case "split-timing", "uni-timing", "custom-timing", "quality-timing":
		res.Timing, err = r.cellTiming(ctx, c)
	case "baseline-timing":
		var a *baseArtifacts
		if a, err = r.BaselineContext(ctx, c.Bench); err == nil {
			res.Timing = a.timing
		}
	case "figure":
		// Render's table builders take no context, so the grid is computed
		// first under ctx. A static table (nil Grid) simulates nothing.
		if e, ok := ExperimentByName(c.Figure); ok && e.Grid != nil {
			err = r.PrewarmContext(ctx, GridFor(c.Figure))
		}
		if err == nil {
			res.Tables, err = r.Render(c.Figure)
		}
	default:
		err = fmt.Errorf("sweep: cell kind %q unknown", c.Kind)
	}
	return res, err
}
