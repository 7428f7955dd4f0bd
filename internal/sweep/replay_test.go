package sweep

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"doppelganger/internal/metrics"
	"doppelganger/internal/trace"
)

// The replay differential suite: a sweep served from a warm trace directory
// must be indistinguishable — to the last bit of every error value, table
// digit and timing cycle — from one that executes every kernel live. Three
// runner configurations are compared throughout: live (no trace dir), cold
// (trace dir populated during the run), warm (trace dir pre-populated by an
// earlier runner).

// traceRunner builds a runner over the benchmark subset with an optional
// trace directory.
func traceRunner(scale float64, dir string, only ...string) *Runner {
	r := NewRunner(scale)
	r.Only = only
	r.TraceDir = dir
	return r
}

// TestTraceSmoke is the fast end-to-end check `make trace-smoke` runs: one
// benchmark is captured cold and replayed warm, and both agree with the
// live value bit-for-bit.
func TestTraceSmoke(t *testing.T) {
	dir := t.TempDir()
	cell := func(r *Runner) (uint64, uint64) {
		s, err := r.SplitError("kmeans", BaseMapBits, BaseDataFrac)
		if err != nil {
			t.Fatal(err)
		}
		u, err := r.UnifiedError("kmeans", BaseMapBits, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		return math.Float64bits(s), math.Float64bits(u)
	}
	liveS, liveU := cell(traceRunner(0.02, "", "kmeans"))
	coldS, coldU := cell(traceRunner(0.02, dir, "kmeans"))
	warmS, warmU := cell(traceRunner(0.02, dir, "kmeans"))
	if coldS != liveS || coldU != liveU {
		t.Errorf("cold capture diverged from live: split %x vs %x, uni %x vs %x", coldS, liveS, coldU, liveU)
	}
	if warmS != liveS || warmU != liveU {
		t.Errorf("warm replay diverged from live: split %x vs %x, uni %x vs %x", warmS, liveS, warmU, liveU)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("cold run persisted no captures")
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".dgt") {
			t.Errorf("unexpected file in trace dir: %s", e.Name())
		}
	}
}

// TestGoldenTablesReplay is the tentpole acceptance test: the full paper
// grid rendered from a cold trace directory and again from a warm one must
// byte-match the blessed goldens that the live path maintains. The warm
// pass must also leave every capture file untouched — replay never
// re-records.
func TestGoldenTablesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full experiment grid twice (~20s)")
	}
	dir := t.TempDir()
	golden := filepath.Join("testdata", "golden_scale005_full.txt")
	render := func(label string) string {
		r := NewRunner(goldenScale)
		r.TraceDir = dir
		if err := r.Prewarm(FullGrid(true)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		full, err := renderFull(r)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return full
	}

	cold := render("cold")
	diffGolden(t, golden, cold)
	mtimes := map[string]time.Time{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("cold pass persisted no captures")
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		mtimes[e.Name()] = info.ModTime()
	}

	warm := render("warm")
	diffGolden(t, golden, warm)
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(mtimes) {
		t.Errorf("warm pass changed the capture count: %d -> %d", len(mtimes), len(ents))
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if was, ok := mtimes[e.Name()]; !ok {
			t.Errorf("warm pass recorded a new capture %s", e.Name())
		} else if !info.ModTime().Equal(was) {
			t.Errorf("warm pass rewrote capture %s", e.Name())
		}
	}
}

// TestReplayFaultQualityCells extends the differential to the seeded cells:
// fault injection and the quality guard draw pseudo-random decisions per
// LLC operation, so replay only matches if the captured stream reproduces
// the live operation sequence exactly.
func TestReplayFaultQualityCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const rate = 1e-4
	dir := t.TempDir()
	cells := func(r *Runner) map[string]interface{} {
		r.FaultSeed = 42
		out := map[string]interface{}{}
		for _, name := range r.Only {
			for _, org := range FaultOrgs {
				v, err := r.FaultError(name, org, rate)
				if err != nil {
					t.Fatal(err)
				}
				out["fault/"+name+"/"+org] = math.Float64bits(v)
				q, err := r.QualityError(name, org, rate)
				if err != nil {
					t.Fatal(err)
				}
				// Transitions aside, the outcome is comparable field-by-field;
				// compare the flattened struct including the transition log.
				out["quality/"+name+"/"+org] = *q
			}
		}
		return out
	}
	only := []string{"blackscholes", "kmeans"}
	live := cells(traceRunner(0.02, "", only...))
	cold := cells(traceRunner(0.02, dir, only...))
	warm := cells(traceRunner(0.02, dir, only...))
	// Two warm Runners sharing one decoded cache: the first decodes the
	// guarded cells' captures, the second replays them from memory.
	dc := trace.NewDecodedCache(256 << 20)
	shared := func() map[string]interface{} {
		r := traceRunner(0.02, dir, only...)
		r.DecodedCache = dc
		return cells(r)
	}
	first := shared()
	hits := dc.Stats().Hits
	second := shared()
	if st := dc.Stats(); st.Hits == hits {
		t.Errorf("second Runner's loads never hit the shared decoded cache: %+v", st)
	}
	runs := []struct {
		name string
		got  map[string]interface{}
	}{{"cold", cold}, {"warm", warm}, {"shared-cache first", first}, {"shared-cache second", second}}
	for k, lv := range live {
		for _, run := range runs {
			gv := run.got[k]
			if qa, ok := lv.(QualityOutcome); ok {
				if qg := gv.(QualityOutcome); !qualityOutcomeEqual(qa, qg) {
					t.Errorf("%s: %s diverged from live:\nlive %+v\ngot  %+v", k, run.name, qa, qg)
				}
			} else if gv != lv {
				t.Errorf("%s: %s %v != live %v", k, run.name, gv, lv)
			}
		}
	}
}

// TestDecodedCacheHoldsOnlyBaselines: a warm Runner with a decoded cache
// serves split-, uni- and fault-error cells from a recorded directory
// bit-identically to a live Runner and to the cold Runner that recorded
// it, and afterwards the shared cache holds only the baseline captures the
// cells scored against. Output-only cells load their own captures with the
// output-only decode and never enter the cache.
func TestDecodedCacheHoldsOnlyBaselines(t *testing.T) {
	only := []string{"blackscholes", "kmeans"}
	dir := t.TempDir()
	cells := func(r *Runner) map[string]uint64 {
		r.FaultSeed = 42
		out := map[string]uint64{}
		for _, name := range only {
			s, err := r.SplitError(name, BaseMapBits, BaseDataFrac)
			if err != nil {
				t.Fatal(err)
			}
			out["split/"+name] = math.Float64bits(s)
			u, err := r.UnifiedError(name, BaseMapBits, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			out["uni/"+name] = math.Float64bits(u)
			f, err := r.FaultError(name, "doppel", 1e-4)
			if err != nil {
				t.Fatal(err)
			}
			out["fault/"+name] = math.Float64bits(f)
		}
		return out
	}
	live := cells(traceRunner(0.02, "", only...))
	cold := cells(traceRunner(0.02, dir, only...))
	w := traceRunner(0.02, dir, only...)
	w.DecodedCache = trace.NewDecodedCache(256 << 20)
	w.Metrics = metrics.NewRegistry()
	warm := cells(w)
	for k, v := range live {
		if cold[k] != v {
			t.Errorf("%s: cold %x != live %x", k, cold[k], v)
		}
		if warm[k] != v {
			t.Errorf("%s: warm %x != live %x", k, warm[k], v)
		}
	}
	if n := w.Metrics.CounterValue("trace.records"); n != 0 {
		t.Errorf("warm pass re-recorded %d captures", n)
	}
	if st := w.DecodedCache.Stats(); st.Entries != len(only) {
		t.Errorf("decoded cache holds %d captures, want only the %d baselines: %+v", st.Entries, len(only), st)
	}
}

func qualityOutcomeEqual(a, b QualityOutcome) bool {
	if a.TrueErrorBits != b.TrueErrorBits || a.EstimateBits != b.EstimateBits ||
		a.FinalState != b.FinalState || a.Trips != b.Trips || a.Reentries != b.Reentries ||
		a.Canaries != b.Canaries || a.CanaryDraws != b.CanaryDraws ||
		a.ApproxOps != b.ApproxOps || a.Bypassed != b.Bypassed ||
		len(a.Transitions) != len(b.Transitions) {
		return false
	}
	for i := range a.Transitions {
		if a.Transitions[i] != b.Transitions[i] {
			return false
		}
	}
	return true
}

// TestReplayResumeDeterministic covers the checkpoint×trace-cache corner: a
// sweep interrupted after half its cells and resumed from the checkpoint
// over the now-warm trace directory must produce the same bits as one cold
// uninterrupted run — resumed keys come from the checkpoint, the rest from
// replay or fresh capture, and no source may drift.
func TestReplayResumeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	type cell struct {
		name string
		m    int
		frac float64
	}
	cells := []cell{
		{"kmeans", 12, 0.25}, {"kmeans", 14, 0.25}, {"kmeans", 14, 0.5},
		{"swaptions", 12, 0.25}, {"swaptions", 14, 0.25}, {"swaptions", 14, 0.5},
	}
	compute := func(r *Runner, cs []cell) map[cell]uint64 {
		out := map[cell]uint64{}
		for _, c := range cs {
			v, err := r.SplitError(c.name, c.m, c.frac)
			if err != nil {
				t.Fatal(err)
			}
			out[c] = math.Float64bits(v)
		}
		return out
	}

	// The uninterrupted reference: every cell live, no traces, no checkpoint.
	want := compute(traceRunner(0.02, "", "kmeans", "swaptions"), cells)

	// First leg: half the cells complete before the "interrupt", landing in
	// both the checkpoint and the trace directory.
	dir := t.TempDir()
	cpPath := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenCheckpoint(cpPath, false)
	if err != nil {
		t.Fatal(err)
	}
	r1 := traceRunner(0.02, dir, "kmeans", "swaptions")
	r1.Checkpoint = cp
	compute(r1, cells[:3])
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Second leg: resume over the warm traces and finish everything.
	re, err := OpenCheckpoint(cpPath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() == 0 {
		t.Fatal("first leg checkpointed nothing")
	}
	r2 := traceRunner(0.02, dir, "kmeans", "swaptions")
	r2.Checkpoint = re
	r2.Resume(re)
	got := compute(r2, cells)
	for c, v := range want {
		if got[c] != v {
			t.Errorf("split/%s/%d/%g: resumed run %x != cold run %x", c.name, c.m, c.frac, got[c], v)
		}
	}
}

// TestTracePersistFailureDegradesLive is the graceful-degradation proof: a
// cell whose capture cannot be persisted (here: the trace dir cannot even
// be created) must NOT fail — it degrades to plain live execution with the
// same bits, counts itself in trace.degraded, and a later runner over a
// healthy directory records normally.
func TestTracePersistFailureDegradesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	want, err := traceRunner(0.02, "", "kmeans").SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := traceRunner(0.02, filepath.Join(blocker, "traces"), "kmeans")
	r.Metrics = metrics.NewRegistry()
	v, err := r.SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatalf("cell failed instead of degrading to live execution: %v", err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Errorf("degraded cell diverged from live: %x vs %x", math.Float64bits(v), math.Float64bits(want))
	}
	if n := r.Metrics.CounterValue("trace.degraded"); n == 0 {
		t.Error("degraded cells not counted in trace.degraded")
	}
	if n := r.Metrics.CounterValue("trace.records"); n != 0 {
		t.Errorf("unwritable store still claims %d recorded captures", n)
	}
	// A fresh runner over a healthy directory records normally and replays
	// to the same bits.
	dir := t.TempDir()
	h := traceRunner(0.02, dir, "kmeans")
	hv, err := h.SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatalf("healthy-dir run failed: %v", err)
	}
	if math.Float64bits(hv) != math.Float64bits(want) {
		t.Errorf("healthy-dir run diverged from live: %x vs %x", math.Float64bits(hv), math.Float64bits(want))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two captures: the split cell and the precise baseline it scores against.
	if len(ents) != 2 {
		t.Fatalf("healthy run persisted %d captures, want 2", len(ents))
	}
	w, err := traceRunner(0.02, dir, "kmeans").SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(w) != math.Float64bits(want) {
		t.Errorf("replay diverged: %x vs %x", math.Float64bits(w), math.Float64bits(want))
	}
}

// TestTraceCorruptQuarantinedAndRerecorded is the self-healing proof: every
// capture in a warm directory is damaged on disk, and the next sweep must
// (1) produce bits identical to the cold run, (2) move each damaged file to
// the quarantine exactly once, and (3) leave behind freshly recorded,
// replayable captures.
func TestTraceCorruptQuarantinedAndRerecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cold, err := traceRunner(0.02, dir, "kmeans").SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".dgt") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("cold run persisted no captures to damage")
	}

	r := traceRunner(0.02, dir, "kmeans")
	r.Metrics = metrics.NewRegistry()
	healed, err := r.SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatalf("sweep over a damaged directory failed instead of healing: %v", err)
	}
	if math.Float64bits(healed) != math.Float64bits(cold) {
		t.Errorf("healed run diverged: %x vs %x", math.Float64bits(healed), math.Float64bits(cold))
	}
	if n := r.Metrics.CounterValue("trace.quarantines"); n != uint64(damaged) {
		t.Errorf("quarantined %d captures, damaged %d", n, damaged)
	}
	qents, err := os.ReadDir(filepath.Join(dir, ".quarantine"))
	if err != nil {
		t.Fatalf("no quarantine directory after healing: %v", err)
	}
	qcaptures := 0
	for _, e := range qents {
		if strings.HasSuffix(e.Name(), ".dgt") {
			qcaptures++
		}
	}
	if qcaptures != damaged {
		t.Errorf("quarantine holds %d captures, want %d", qcaptures, damaged)
	}
	// The re-recorded captures replay to the same bits — no quarantine loop.
	w := traceRunner(0.02, dir, "kmeans")
	w.Metrics = metrics.NewRegistry()
	wv, err := w.SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(wv) != math.Float64bits(cold) {
		t.Errorf("post-heal replay diverged: %x vs %x", math.Float64bits(wv), math.Float64bits(cold))
	}
	if n := w.Metrics.CounterValue("trace.quarantines"); n != 0 {
		t.Errorf("healed directory quarantined %d more captures: quarantine loop", n)
	}
	if n := w.Metrics.CounterValue("trace.replays"); n == 0 {
		t.Error("post-heal run replayed nothing")
	}
}

// TestTraceUnavailableDegradesLive covers the other error family: when the
// I/O path cannot produce bytes (device errors, not damage), the cell runs
// live with identical bits, nothing is quarantined, and the on-disk capture
// survives for when the disk recovers.
func TestTraceUnavailableDegradesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cold, err := traceRunner(0.02, dir, "kmeans").SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	chaos := trace.NewChaosFS(1)
	chaos.ReadErr = 1 // every read fails: the store is unavailable, not damaged
	r := traceRunner(0.02, dir, "kmeans")
	r.TraceFS = chaos
	r.Metrics = metrics.NewRegistry()
	v, err := r.SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatalf("unavailable store failed the cell instead of degrading: %v", err)
	}
	if math.Float64bits(v) != math.Float64bits(cold) {
		t.Errorf("degraded cell diverged: %x vs %x", math.Float64bits(v), math.Float64bits(cold))
	}
	if n := r.Metrics.CounterValue("trace.degraded"); n == 0 {
		t.Error("degraded cells not counted in trace.degraded")
	}
	if n := r.Metrics.CounterValue("trace.quarantines"); n != 0 {
		t.Errorf("device errors quarantined %d healthy captures", n)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("degraded run changed the directory: %d -> %d entries", len(before), len(after))
	}
}

// TestTraceReplayRequiresCapture verifies the strict mode: -trace-replay
// over an empty directory fails with an error naming the cell rather than
// silently running live.
func TestTraceReplayRequiresCapture(t *testing.T) {
	r := traceRunner(0.02, t.TempDir(), "kmeans")
	r.TraceReplay = true
	_, err := r.SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err == nil {
		t.Fatal("-trace-replay with no captures ran live")
	}
	if !strings.Contains(err.Error(), "kmeans") || !strings.Contains(err.Error(), "-trace-replay") {
		t.Errorf("error does not name the cell and the flag: %v", err)
	}
}

// TestTraceStaleIdentityRecaptures verifies a capture recorded under a
// different configuration (here: scale) is treated as stale — re-recorded
// in the default mode, never replayed.
func TestTraceStaleIdentityRecaptures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	a := traceRunner(0.02, dir, "kmeans")
	va, err := a.SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	// A different scale hashes to a different identity, hence a different
	// file: both captures coexist and each replays its own bits.
	b := traceRunner(0.03, dir, "kmeans")
	vb, err := b.SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(va) == math.Float64bits(vb) {
		t.Logf("scales 0.02 and 0.03 coincide on kmeans (fine, but surprising)")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each scale records its split cell plus the baseline it scores against.
	if len(ents) != 4 {
		t.Fatalf("want 4 captures (split+baseline per scale), got %d", len(ents))
	}
	// Warm replays at each scale still match their own cold run.
	wa, err := traceRunner(0.02, dir, "kmeans").SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(wa) != math.Float64bits(va) {
		t.Errorf("scale-0.02 replay diverged: %x vs %x", math.Float64bits(wa), math.Float64bits(va))
	}
}
