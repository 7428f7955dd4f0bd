package server

import (
	"strings"
	"testing"
)

func TestCellValidate(t *testing.T) {
	cases := []struct {
		name string
		cell Cell
		want string // "" = valid; otherwise a required error substring
	}{
		{"split ok", Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}, ""},
		{"uni timing ok", Cell{Kind: "uni-timing", Bench: "jpeg", M: 14, Frac: 0.5}, ""},
		{"fault ok", Cell{Kind: "fault-error", Bench: "kmeans", Org: "doppel", Rate: 1e-4}, ""},
		{"quality ok", Cell{Kind: "quality-error", Bench: "kmeans", Org: "uni", Rate: 1e-4}, ""},
		{"quality timing ok", Cell{Kind: "quality-timing", Bench: "kmeans", Org: "doppel", Rate: 1e-4, Guarded: true}, ""},
		{"baseline ok", Cell{Kind: "baseline-timing", Bench: "inversek2j"}, ""},
		{"figure ok", Cell{Kind: "figure", Figure: "fig10"}, ""},
		{"unknown kind", Cell{Kind: "warp-drive", Bench: "kmeans"}, "kind"},
		{"unknown bench", Cell{Kind: "split-error", Bench: "nope", M: 14, Frac: 0.25}, "bench"},
		{"map bits zero", Cell{Kind: "split-error", Bench: "kmeans", Frac: 0.25}, "m must be"},
		{"map bits huge", Cell{Kind: "uni-error", Bench: "kmeans", M: 48, Frac: 0.25}, "m must be"},
		{"frac zero", Cell{Kind: "split-error", Bench: "kmeans", M: 14}, "frac"},
		{"frac above one", Cell{Kind: "split-timing", Bench: "kmeans", M: 14, Frac: 1.5}, "frac"},
		{"split frac off-geometry", Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.1}, "geometry"},
		{"uni frac off-geometry", Cell{Kind: "uni-timing", Bench: "kmeans", M: 14, Frac: 0.21}, "geometry"},
		{"split frac eighth ok", Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.125}, ""},
		{"bad fault org", Cell{Kind: "fault-error", Bench: "kmeans", Org: "weird", Rate: 1e-4}, "org"},
		{"baseline not guarded", Cell{Kind: "quality-error", Bench: "kmeans", Org: "baseline", Rate: 1e-4}, "org"},
		{"rate above one", Cell{Kind: "fault-error", Bench: "kmeans", Org: "doppel", Rate: 1.5}, "rate"},
		{"unknown figure", Cell{Kind: "figure", Figure: "fig99"}, "figure"},
	}
	for _, tc := range cases {
		err := tc.cell.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCellKey pins the key grammar to the runner's memo keys plus the
// checkpoint's result-kind suffix — resume and server memoization both
// depend on these exact spellings.
func TestCellKey(t *testing.T) {
	cases := []struct {
		cell Cell
		want string
	}{
		{Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}, "split/kmeans/14/0.25/error"},
		{Cell{Kind: "split-timing", Bench: "kmeans", M: 14, Frac: 0.25}, "split/kmeans/14/0.25/timing"},
		{Cell{Kind: "uni-error", Bench: "jpeg", M: 14, Frac: 0.5}, "uni/jpeg/14/0.5/error"},
		{Cell{Kind: "fault-error", Bench: "kmeans", Org: "doppel", Rate: 1e-4}, "fault/doppel/kmeans/0.0001/error"},
		{Cell{Kind: "quality-error", Bench: "kmeans", Org: "uni", Rate: 1e-4}, "quality/uni/kmeans/0.0001/quality"},
		{Cell{Kind: "quality-timing", Bench: "kmeans", Org: "doppel", Rate: 1e-4}, "quality/doppel/kmeans/0.0001/time-off/timing"},
		{Cell{Kind: "quality-timing", Bench: "kmeans", Org: "doppel", Rate: 1e-4, Guarded: true}, "quality/doppel/kmeans/0.0001/time-on/timing"},
		{Cell{Kind: "baseline-timing", Bench: "sobel"}, "base/sobel/timing"},
		{Cell{Kind: "figure", Figure: "fig10"}, "figure/fig10"},
	}
	for _, tc := range cases {
		if got := tc.cell.Key(); got != tc.want {
			t.Errorf("Key(%+v) = %q, want %q", tc.cell, got, tc.want)
		}
	}
}

// TestChecksumDetectsMutation is the corruption-detection primitive: any
// byte flip changes the sum.
func TestChecksumDetectsMutation(t *testing.T) {
	payload := []byte(`{"key":"split/kmeans/14/0.25/error","kind":"split-error","bits":4591870180066957722}`)
	sum := checksum(payload)
	for i := range payload {
		mutated := append([]byte(nil), payload...)
		mutated[i] ^= 0x20
		if checksum(mutated) == sum {
			t.Fatalf("flip at byte %d not detected", i)
		}
	}
}

// TestContentHashSeparatesConfigs verifies the memo key covers the knobs
// that change result bytes: different cells, scales and seeds never collide
// (on this small grid), while the same config hashes identically.
func TestContentHashSeparatesConfigs(t *testing.T) {
	mk := func(cfg Config) *Server {
		return &Server{cfg: cfg.withDefaults()}
	}
	a := mk(Config{Scale: 0.02})
	cell := Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}
	if a.contentHash(cell) != mk(Config{Scale: 0.02}).contentHash(cell) {
		t.Fatal("same config, same cell: hashes differ")
	}
	seen := map[string]string{}
	add := func(label, h string) {
		if prev, dup := seen[h]; dup {
			t.Fatalf("content hash collision: %s and %s", prev, label)
		}
		seen[h] = label
	}
	add("base", a.contentHash(cell))
	add("other cell", a.contentHash(Cell{Kind: "split-error", Bench: "kmeans", M: 13, Frac: 0.25}))
	add("other kind", a.contentHash(Cell{Kind: "split-timing", Bench: "kmeans", M: 14, Frac: 0.25}))
	add("other scale", mk(Config{Scale: 0.05}).contentHash(cell))
	add("other fault seed", mk(Config{Scale: 0.02, FaultSeed: 7}).contentHash(cell))
	add("other quality seed", mk(Config{Scale: 0.02, QualitySeed: 7}).contentHash(cell))
	add("other budget", mk(Config{Scale: 0.02, QualityBudget: 0.1}).contentHash(cell))
}
