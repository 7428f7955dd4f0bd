// Package server is the sweep engine as a service: an HTTP/JSON job server
// that accepts sweep-cell submissions and memoizes results by cell key, so
// the same cell is never simulated twice. A cell that misses the memo is
// computed on the submitting goroutine, on the server's one sweep.Runner,
// holding one of GOMAXPROCS run slots. Around that sit a queue budget that
// sheds with 429, a per-job deadline and a graceful drain that cancels the
// stragglers. The checkpoint is the one resume record: a server started
// over it answers every recorded cell without simulating. Cells are
// deterministic, so a failed compute is not retried: the memo forgets it,
// and a resubmission computes the cell afresh.
package server

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"math"

	"doppelganger/internal/sweep"
)

// Cell is one job: the POST /v1/jobs request body (see sweep.Cell, which
// validates it and names its result).
type Cell = sweep.Cell

// payload is the deterministic content of a job result: exactly one of the
// value fields is set, per Kind. It deliberately excludes anything volatile
// (cache hits, latency) — those live on the Result envelope — so payload
// bytes from any compute or a resumed server are comparable byte for byte.
// Error values travel as raw float64 bits, the checkpoint's round-trip
// discipline.
type payload struct {
	Key     string                `json:"key"`
	Kind    string                `json:"kind"`
	Bits    uint64                `json:"bits,omitempty"`
	Timing  *sweep.TimingSummary  `json:"timing,omitempty"`
	Quality *sweep.QualityOutcome `json:"quality,omitempty"`
	Tables  []json.RawMessage     `json:"tables,omitempty"`
}

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
	res, err := r.Run(ctx, c)
	if err != nil {
		return nil, err
	}
	p := payload{Key: c.Key(), Kind: c.Kind, Bits: math.Float64bits(res.Error), Quality: res.Quality}
	if res.Timing != nil {
		p.Timing = sweep.Summarize(res.Timing)
	}
	for _, t := range res.Tables {
		p.Tables = append(p.Tables, json.RawMessage(t.FormatJSON()))
	}
	return json.Marshal(p)
}

// Result is the envelope a completed job returns: the deterministic payload
// plus its integrity sum, and whether this response was served from the
// memo. Only Payload and Sum are covered by the determinism contract.
type Result struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
	Sum     uint64          `json:"sum"`
	Cached  bool            `json:"cached,omitempty"`
}
