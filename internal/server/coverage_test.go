package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"doppelganger/internal/sweep"
)

// TestFigureCell submits whole-figure jobs (the coarse end of the job
// spectrum) through the full pipeline: the static tables are cheap, and the
// payload must carry their JSON renderings.
func TestFigureCell(t *testing.T) {
	cfg := testConfig()
	var logBuf bytes.Buffer
	cfg.Log = &logBuf
	s := mustServer(t, cfg)
	for _, fig := range []string{"table3", "fig13"} {
		res, err := s.Submit(context.Background(), Cell{Kind: "figure", Figure: fig})
		if err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		var p struct {
			Kind   string            `json:"kind"`
			Tables []json.RawMessage `json:"tables"`
		}
		if err := json.Unmarshal(res.Payload, &p); err != nil {
			t.Fatalf("figure %s payload: %v", fig, err)
		}
		if p.Kind != "figure" || len(p.Tables) == 0 {
			t.Fatalf("figure %s payload carries no tables: %s", fig, res.Payload)
		}
	}
	if s.Metrics() == nil {
		t.Fatal("Metrics() returned nil")
	}
}

// TestFigureJobHonoursDeadline: a figure job computes its grid under the
// job's context, so a job deadline shorter than the figure's compute fails
// it with context.DeadlineExceeded instead of letting it run to the end.
func TestFigureJobHonoursDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := testConfig()
	cfg.JobTimeout = 10 * time.Millisecond
	s := mustServer(t, cfg)
	start := time.Now()
	_, err := s.Submit(context.Background(), Cell{Kind: "figure", Figure: "fig9"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("fig9 under a %v deadline: err = %v after %v, want context.DeadlineExceeded",
			cfg.JobTimeout, err, time.Since(start).Round(time.Millisecond))
	}
	if n := s.m.timeouts.Value(); n != 1 {
		t.Fatalf("timeouts counter = %d, want 1", n)
	}
}

// TestExecuteCellRemainingKinds drives executeCell on a bare runner with
// the kinds the other tests do not submit (unified timing, guarded and
// unguarded quality timing), pinning that each produces a timing payload.
func TestExecuteCellRemainingKinds(t *testing.T) {
	r := sweep.NewRunner(0.02)
	r.Only = []string{"kmeans"}
	cells := []Cell{
		{Kind: "uni-timing", Bench: "kmeans", M: 14, Frac: 0.5},
		{Kind: "quality-timing", Bench: "kmeans", Org: "doppel", Rate: 1e-4},
		{Kind: "quality-timing", Bench: "kmeans", Org: "doppel", Rate: 1e-4, Guarded: true},
	}
	for _, c := range cells {
		b, err := executeCell(context.Background(), r, c)
		if err != nil {
			t.Fatalf("%s: %v", c.Key(), err)
		}
		var p struct {
			Timing *sweep.TimingSummary `json:"timing"`
		}
		if err := json.Unmarshal(b, &p); err != nil || p.Timing == nil {
			t.Fatalf("%s: no timing in payload %s (%v)", c.Key(), b, err)
		}
	}
	if _, err := executeCell(context.Background(), r, Cell{Kind: "figure", Figure: "nope"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestRetryAfterSeconds pins the header rendering: round up, floor 1.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"}, {time.Millisecond, "1"}, {time.Second, "1"},
		{1100 * time.Millisecond, "2"}, {3 * time.Second, "3"},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %s, want %s", tc.d, got, tc.want)
		}
	}
}
