// Package server is the sweep engine as a service: an HTTP/JSON job server
// that accepts sweep-cell submissions and memoizes results by content hash,
// so the same cell is never simulated twice. A cell that misses the memo is
// computed on the submitting goroutine, on the server's one sweep.Runner,
// holding one of GOMAXPROCS run slots. Around that sit token-bucket
// admission, a queue budget that sheds with 429, a per-job deadline and a
// graceful drain to a resumable state file. Cells are deterministic, so a
// failed compute is not retried: the memo forgets it, and a resubmission
// computes the cell afresh.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"doppelganger/internal/sweep"
	"doppelganger/internal/workloads"
)

// Cell names one unit of sweep work: a single experiment cell (one memoized
// simulation result) or a whole figure. The JSON form is the POST /v1/jobs
// request body.
type Cell struct {
	// Kind selects the computation:
	//   split-error, split-timing    — split Doppelgänger at (M, Frac)
	//   uni-error, uni-timing        — uniDoppelgänger at (M, Frac)
	//   fault-error                  — Org under injection at Rate
	//   quality-error                — guarded run of Org at Rate
	//   quality-timing               — timing replay of Org at Rate (Guarded?)
	//   baseline-timing              — the precise baseline timing run
	//   figure                       — a whole experiment table (Figure)
	Kind  string  `json:"kind"`
	Bench string  `json:"bench,omitempty"`
	M     int     `json:"m,omitempty"`
	Frac  float64 `json:"frac,omitempty"`
	Org   string  `json:"org,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
	// Guarded selects guard-on vs guard-off for quality-timing.
	Guarded bool `json:"guarded,omitempty"`
	// Figure names the experiment for Kind "figure": the Name of an entry
	// of sweep.Experiments.
	Figure string `json:"figure,omitempty"`
}

func inList(s string, list []string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Validate rejects cells the runner could only fail on mid-simulation, with
// a message that names the offending field (the flagcheck discipline applied
// to the wire).
func (c Cell) Validate() error {
	needBench := c.Kind != "figure"
	if needBench {
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
	case "fault-error":
		if !inList(c.Org, sweep.FaultOrgs) {
			return fmt.Errorf("cell org %q unknown (want one of %v)", c.Org, sweep.FaultOrgs)
		}
		if !(c.Rate >= 0 && c.Rate <= 1) {
			return fmt.Errorf("cell rate must be a probability in [0,1], got %v", c.Rate)
		}
	case "quality-error", "quality-timing":
		if !inList(c.Org, sweep.GuardedOrgs) {
			return fmt.Errorf("cell org %q unknown (want one of %v)", c.Org, sweep.GuardedOrgs)
		}
		if !(c.Rate >= 0 && c.Rate <= 1) {
			return fmt.Errorf("cell rate must be a probability in [0,1], got %v", c.Rate)
		}
	case "baseline-timing":
	case "figure":
		if _, ok := sweep.ExperimentByName(c.Figure); !ok {
			return fmt.Errorf("cell figure %q unknown", c.Figure)
		}
	default:
		return fmt.Errorf("cell kind %q unknown", c.Kind)
	}
	return nil
}

// Key returns the cell's unique identity, matching the runner's memo keys
// with the checkpoint's result-kind suffix, so server results, checkpoint
// records and runner caches all speak the same names.
func (c Cell) Key() string {
	switch c.Kind {
	case "split-error":
		return fmt.Sprintf("split/%s/%d/%g/error", c.Bench, c.M, c.Frac)
	case "split-timing":
		return fmt.Sprintf("split/%s/%d/%g/timing", c.Bench, c.M, c.Frac)
	case "uni-error":
		return fmt.Sprintf("uni/%s/%d/%g/error", c.Bench, c.M, c.Frac)
	case "uni-timing":
		return fmt.Sprintf("uni/%s/%d/%g/timing", c.Bench, c.M, c.Frac)
	case "fault-error":
		return fmt.Sprintf("fault/%s/%s/%g/error", c.Org, c.Bench, c.Rate)
	case "quality-error":
		return fmt.Sprintf("quality/%s/%s/%g/quality", c.Org, c.Bench, c.Rate)
	case "quality-timing":
		mode := "time-off"
		if c.Guarded {
			mode = "time-on"
		}
		return fmt.Sprintf("quality/%s/%s/%g/%s/timing", c.Org, c.Bench, c.Rate, mode)
	case "baseline-timing":
		return fmt.Sprintf("base/%s/timing", c.Bench)
	case "figure":
		return "figure/" + c.Figure
	}
	return "invalid/" + c.Kind
}

// payload is the deterministic content of a job result: exactly one of the
// value fields is set, per Kind. It deliberately excludes anything volatile
// (cache hits, latency) — those live on the Result envelope — so payload
// bytes from any compute or a resumed server are comparable byte for byte. Error values travel as raw float64
// bits, the checkpoint's round-trip discipline.
type payload struct {
	Key     string                `json:"key"`
	Kind    string                `json:"kind"`
	Bits    uint64                `json:"bits,omitempty"`
	Timing  *sweep.TimingSummary  `json:"timing,omitempty"`
	Quality *sweep.QualityOutcome `json:"quality,omitempty"`
	Tables  []json.RawMessage     `json:"tables,omitempty"`
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }

// checksum is the integrity sum carried beside every payload: FNV-64a over
// the canonical payload bytes, sealed when the payload is built, so a
// client can check the bytes it received.
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// executeCell runs one cell on the runner and builds its canonical payload.
// Everything here is deterministic in (cell, runner config): fault and
// canary seeds derive from (seed, task key), never from which goroutine
// computes the cell, so every compute produces bit-identical bytes.
func executeCell(ctx context.Context, r *sweep.Runner, c Cell) ([]byte, error) {
	p := payload{Key: c.Key(), Kind: c.Kind}
	switch c.Kind {
	case "split-error":
		v, err := r.SplitErrorContext(ctx, c.Bench, c.M, c.Frac)
		if err != nil {
			return nil, err
		}
		p.Bits = floatBits(v)
	case "uni-error":
		v, err := r.UnifiedErrorContext(ctx, c.Bench, c.M, c.Frac)
		if err != nil {
			return nil, err
		}
		p.Bits = floatBits(v)
	case "fault-error":
		v, err := r.FaultErrorContext(ctx, c.Bench, c.Org, c.Rate)
		if err != nil {
			return nil, err
		}
		p.Bits = floatBits(v)
	case "split-timing":
		res, err := r.SplitTimingContext(ctx, c.Bench, c.M, c.Frac)
		if err != nil {
			return nil, err
		}
		p.Timing = sweep.Summarize(res)
	case "uni-timing":
		res, err := r.UnifiedTimingContext(ctx, c.Bench, c.M, c.Frac)
		if err != nil {
			return nil, err
		}
		p.Timing = sweep.Summarize(res)
	case "baseline-timing":
		res, err := r.BaselineTimingContext(ctx, c.Bench)
		if err != nil {
			return nil, err
		}
		p.Timing = sweep.Summarize(res)
	case "quality-timing":
		res, err := r.QualityTimingContext(ctx, c.Bench, c.Org, c.Rate, c.Guarded)
		if err != nil {
			return nil, err
		}
		p.Timing = sweep.Summarize(res)
	case "quality-error":
		q, err := r.QualityErrorContext(ctx, c.Bench, c.Org, c.Rate)
		if err != nil {
			return nil, err
		}
		p.Quality = q
	case "figure":
		// A figure job computes its missing cells serially inside the runner
		// (no per-cell cancellation), so it is the coarse-grained end of the
		// job spectrum; the drain timeout still bounds it.
		tables, err := r.Render(c.Figure)
		if err != nil {
			return nil, err
		}
		for _, t := range tables {
			p.Tables = append(p.Tables, json.RawMessage(t.FormatJSON()))
		}
	default:
		return nil, fmt.Errorf("server: cell kind %q unknown", c.Kind)
	}
	return json.Marshal(p)
}

// Result is the envelope a completed job returns: the deterministic payload
// plus its integrity sum, and the volatile bookkeeping (content hash,
// whether this response was served from the memo). Only Payload and Sum are
// covered by the determinism contract.
type Result struct {
	Key     string          `json:"key"`
	Hash    string          `json:"hash"`
	Payload json.RawMessage `json:"payload"`
	Sum     uint64          `json:"sum"`
	Cached  bool            `json:"cached,omitempty"`
}
