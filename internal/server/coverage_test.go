package server

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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
		res, err := s.SubmitLocal(context.Background(), Cell{Kind: "figure", Figure: fig})
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

// TestExecuteCellRemainingKinds drives the executeCell arms the other tests
// do not reach (unified timing, guarded and unguarded quality timing) on a
// bare runner, pinning that each produces a timing payload.
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

// TestStateFileErrors pins the drain state file's failure modes: missing
// file, non-JSON garbage, and a future schema version are all distinct,
// actionable errors.
func TestStateFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadState(filepath.Join(dir, "missing.json")); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v, want ErrNotExist", err)
	}
	garbage := filepath.Join(dir, "garbage.json")
	os.WriteFile(garbage, []byte("not json"), 0o644)
	if _, err := LoadState(garbage); err == nil || !strings.Contains(err.Error(), "state file") {
		t.Fatalf("garbage file: %v", err)
	}
	future := filepath.Join(dir, "future.json")
	os.WriteFile(future, []byte(`{"version":99,"pending":[]}`), 0o644)
	if _, err := LoadState(future); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}

	// Round trip, including the nil-slice normalization.
	path := filepath.Join(dir, "state.json")
	if err := WriteState(path, nil); err != nil {
		t.Fatal(err)
	}
	cells, err := LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("empty state loaded %d cells", len(cells))
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
