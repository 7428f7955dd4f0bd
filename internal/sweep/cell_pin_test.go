package sweep

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"doppelganger/internal/workloads"
)

// digest is FNV-64a over v's JSON encoding, the sum sweepd seals beside a
// payload.
func digest(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestCellIdentitiesPinned pins what sweepd's defaults (fault seed 1 with
// bit flips, quality seed 1, budget and canary rate 0.05) make of the cell
// vocabulary: the capture identity of one cell of each kind, that the
// runner records the seeded cells under exactly those identities, and the
// results of the cells whose injector and guard seeds are derived from
// strings spelled from the cell. A respelled key, identity extra or seed
// string shows up here as a different identity, a missing capture or
// different bits.
func TestCellIdentitiesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	r := NewRunner(0.05)
	r.Only = []string{"kmeans"}
	r.FaultSeed, r.QualitySeed = 1, 1
	r.QualityBudget, r.CanaryRate = 0.05, 0.05
	r.TraceDir = t.TempDir()

	idents := []struct {
		kind, org string
		m         int
		frac      float64
		want      string
	}{
		{"split-error", "", 14, 0.25, "dgtf1|split/kmeans/14/0.25|scale=0.05|cores=4"},
		{"uni-error", "", 14, 0.5, "dgtf1|uni/kmeans/14/0.5|scale=0.05|cores=4"},
		{"fault-error", "doppel", 0, 0, "dgtf1|fault/doppel/kmeans/0.0001|scale=0.05|cores=4|fseed=1|fmodel=flip"},
		{"quality-error", "uni", 0, 0, "dgtf1|quality/uni/kmeans/0.0001|scale=0.05|cores=4|fseed=1|fmodel=flip|qseed=1|budget=0.05|canary=0.05"},
		{"split-timing", "", 14, 0.25, "dgtf1|base/kmeans|scale=0.05|cores=4"},
		{"uni-timing", "", 14, 0.5, "dgtf1|base/kmeans|scale=0.05|cores=4"},
		{"quality-timing", "doppel", 0, 0, "dgtf1|base/kmeans|scale=0.05|cores=4"},
		{"baseline-timing", "", 0, 0, "dgtf1|base/kmeans|scale=0.05|cores=4"},
	}
	for _, c := range idents {
		got, ok := r.CellCaptureIdent(c.kind, "kmeans", c.org, c.m, c.frac, 1e-4)
		if !ok || got != c.want {
			t.Errorf("CellCaptureIdent(%s) = %q, %v; want %q", c.kind, got, ok, c.want)
		}
	}
	if id, ok := r.CellCaptureIdent("figure", "", "", 0, 0, 0); ok {
		t.Errorf("a figure cell maps to capture %q", id)
	}

	const rate = 1e-3
	fe, err := r.FaultError("kmeans", "doppel", rate)
	if err != nil {
		t.Fatal(err)
	}
	q, err := r.QualityError("kmeans", "doppel", rate)
	if err != nil {
		t.Fatal(err)
	}
	off, err := r.QualityTiming("kmeans", "doppel", rate, false)
	if err != nil {
		t.Fatal(err)
	}
	on, err := r.QualityTiming("kmeans", "doppel", rate, true)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		"fault-error bits":       fmt.Sprintf("%016x", math.Float64bits(fe)),
		"quality-error outcome":  digest(t, q),
		"quality-timing off sum": digest(t, Summarize(off)),
		"quality-timing on sum":  digest(t, Summarize(on)),
	}
	want := map[string]string{
		"fault-error bits":       "3f329edea2035f26",
		"quality-error outcome":  "80b3560abcd53afa",
		"quality-timing off sum": "6a609be6f8a65da9",
		"quality-timing on sum":  "5d027e83954d0567",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %s, want %s", k, got[k], w)
		}
	}

	// The runner recorded each seeded functional cell under the identity
	// CellCaptureIdent names for it.
	for _, c := range []struct{ kind, org string }{{"fault-error", "doppel"}, {"quality-error", "doppel"}} {
		id, _ := r.CellCaptureIdent(c.kind, "kmeans", c.org, 0, 0, rate)
		if _, err := os.Stat(workloads.CapturePath(r.TraceDir, id)); err != nil {
			t.Errorf("%s: no capture recorded under %q: %v", c.kind, id, err)
		}
	}
}
