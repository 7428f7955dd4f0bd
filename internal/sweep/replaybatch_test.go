package sweep

import (
	"fmt"
	"math"
	"testing"

	"doppelganger/internal/metrics"
	"doppelganger/internal/trace"
)

// The batched-versus-sequential differential suite: a grid computed as one
// batch of engine tasks (Prewarm) over a trace directory must leave exactly
// the bits that cell-by-cell sequential reads compute — quality outcomes
// with their full breaker histories included — whichever order the engine's
// workers happened to run the cells in.

// TestBatchedQualityMatchesSequential runs the guarded quality cells three
// ways: sequentially while recording cold, batched over the warm directory
// through the engine, and sequentially over the same warm directory through
// a second runner sharing the first's decoded cache. All three must agree
// bit for bit, and the shared cache must have served cross-runner hits.
func TestBatchedQualityMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	only := []string{"kmeans"}
	rates := []float64{1e-9, 1e-10}
	setup := func(r *Runner) *Runner {
		r.FaultSeed = 42
		r.QualitySeed = 7
		r.FaultRates = rates
		return r
	}
	collect := func(r *Runner) map[string]QualityOutcome {
		out := map[string]QualityOutcome{}
		for _, name := range only {
			for _, org := range GuardedOrgs {
				for _, rate := range rates {
					q, err := r.QualityError(name, org, rate)
					if err != nil {
						t.Fatal(err)
					}
					out[fmt.Sprintf("%s/%s/%g", name, org, rate)] = *q
				}
			}
		}
		return out
	}

	// Cold: live runs record the quality captures (and the baseline).
	want := collect(setup(traceRunner(0.02, dir, only...)))

	// Warm batched: the engine's quality tasks replay every guarded cell;
	// the per-cell reads below come from the primed memo.
	b := setup(traceRunner(0.02, dir, only...))
	b.DecodedCache = trace.NewDecodedCache(256 << 20)
	b.Metrics = metrics.NewRegistry()
	if err := b.Prewarm(Grid{Quality: true}); err != nil {
		t.Fatal(err)
	}
	got := collect(b)
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s missing from batched sweep", k)
		}
		if !qualityOutcomeEqual(w, g) {
			t.Errorf("%s: batched diverged from live:\nlive %+v\nbatched %+v", k, w, g)
		}
	}
	if n := b.Metrics.CounterValue("trace.replays"); n < uint64(len(want)) {
		t.Errorf("batched sweep counted %d replays, want at least %d", n, len(want))
	}

	// Sequential over the shared decoded cache: same bits, and the captures
	// the batched runner decoded are served from memory.
	s := setup(traceRunner(0.02, dir, only...))
	s.DecodedCache = b.DecodedCache
	seq := collect(s)
	for k, w := range want {
		if !qualityOutcomeEqual(w, seq[k]) {
			t.Errorf("%s: shared-cache sequential diverged from live:\nlive %+v\ngot %+v", k, w, seq[k])
		}
	}
	if st := b.DecodedCache.Stats(); st.Hits == 0 {
		t.Errorf("shared decoded cache served no hits across runners: %+v", st)
	}
}

// TestBatchedErrorCellsMatchSequential prewarms a split, a uni and a fault
// column through the engine, once cold (recording) and once warm over a
// decoded cache, and requires every error cell to equal the value a live
// runner computes by sequential reads. The warm batch must not execute a
// single kernel: every cell, its timing twin and the baseline output it
// scores against come from captures.
func TestBatchedErrorCellsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	grid := Grid{DataFracs: []float64{BaseDataFrac}, UniFracs: []float64{0.25}, Faults: true}
	setup := func(r *Runner) *Runner {
		r.FaultSeed = 42
		r.FaultRates = []float64{1e-4}
		return r
	}
	cells := func(r *Runner) map[string]uint64 {
		out := map[string]uint64{}
		s, err := r.SplitError("kmeans", BaseMapBits, BaseDataFrac)
		if err != nil {
			t.Fatal(err)
		}
		out["split"] = math.Float64bits(s)
		u, err := r.UnifiedError("kmeans", BaseMapBits, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		out["uni"] = math.Float64bits(u)
		fv, err := r.FaultError("kmeans", "doppel", 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		out["fault"] = math.Float64bits(fv)
		return out
	}
	batched := func(r *Runner) map[string]uint64 {
		if err := r.Prewarm(grid); err != nil {
			t.Fatal(err)
		}
		return cells(r)
	}
	live := cells(setup(traceRunner(0.02, "", "kmeans")))
	cold := batched(setup(traceRunner(0.02, dir, "kmeans")))
	w := setup(traceRunner(0.02, dir, "kmeans"))
	w.DecodedCache = trace.NewDecodedCache(256 << 20)
	w.Metrics = metrics.NewRegistry()
	warm := batched(w)
	for k, v := range live {
		if cold[k] != v {
			t.Errorf("%s: cold batched %x != live sequential %x", k, cold[k], v)
		}
		if warm[k] != v {
			t.Errorf("%s: warm batched %x != live sequential %x", k, warm[k], v)
		}
	}
	if n := w.Metrics.CounterValue("trace.records"); n != 0 {
		t.Errorf("warm batch re-recorded %d captures", n)
	}
	if st := w.DecodedCache.Stats(); st.Entries == 0 {
		t.Errorf("decoded cache empty after a warm batch: %+v", st)
	}
}
