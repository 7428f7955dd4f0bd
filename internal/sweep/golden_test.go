package sweep

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rebless the golden table files in testdata/")

// goldenScale keeps the full regeneration around ten seconds: large enough
// that every structure overflows, small enough for the test suite. The
// sweep is bit-deterministic, so the rendered tables are byte-stable across
// runs, worker counts, and -serial.
const goldenScale = 0.05

// renderFull renders every entry "all" selects, in list order and the text
// format cmd/experiments prints.
func renderFull(r *Runner) (string, error) {
	var b strings.Builder
	for _, e := range Experiments {
		if !e.InAll {
			continue
		}
		ts, err := r.Render(e.Name)
		if err != nil {
			return "", err
		}
		for _, t := range ts {
			fmt.Fprintln(&b, t.Format())
		}
	}
	return b.String(), nil
}

func renderExtras(r *Runner) (string, error) {
	var b strings.Builder
	t, err := r.Extras()
	if err != nil {
		return "", err
	}
	fmt.Fprintln(&b, t.Format())
	return b.String(), nil
}

func diffGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("reblessed %s", path)
		return
	}
	wantB, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sweep -run TestGoldenTables -args -update` to bless)", err)
	}
	want := string(wantB)
	if got == want {
		return
	}
	// Report the first differing line so a regression is readable without
	// an external diff tool.
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n got: %q\nwant: %q\n(rebless with -args -update if the change is intended)",
				path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: length differs (got %d lines, want %d)", path, len(gl), len(wl))
}

// TestGoldenTables regenerates every table the experiments binary prints at
// a reduced scale and byte-compares against the blessed goldens. Any change
// to the simulators that shifts a single reported digit fails here; rebless
// with:
//
//	go test ./internal/sweep -run TestGoldenTables -args -update
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full experiment grid (~10s)")
	}
	r := NewRunner(goldenScale)
	if err := r.Prewarm(FullGrid(true)); err != nil {
		t.Fatal(err)
	}
	full, err := renderFull(r)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, filepath.Join("testdata", "golden_scale005_full.txt"), full)
	extras, err := renderExtras(r)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, filepath.Join("testdata", "golden_scale005_extras.txt"), extras)
}

// TestPublishedResultsMatchTestdata byte-compares the repo-root published
// result files against the snapshots in testdata/, so the published tables
// cannot drift from the blessed copies without a visible diff here.
func TestPublishedResultsMatchTestdata(t *testing.T) {
	for _, name := range []string{"results_full.txt", "results_extras.txt"} {
		published, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatalf("published %s: %v", name, err)
		}
		snap, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("snapshot %s: %v", name, err)
		}
		if string(published) != string(snap) {
			t.Errorf("%s differs between repo root and internal/sweep/testdata; update both together", name)
		}
	}
}
