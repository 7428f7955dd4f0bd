package sweep

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// --- checkpoint round trip (no simulations) ---

// TestCheckpointRoundTrip verifies records survive a close/reopen bit-
// exactly, duplicates write once, and a torn trailing line (an interrupted
// write) is dropped instead of poisoning the resume.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	v := math.Nextafter(0.123, 1) // not exactly representable in decimal
	cp.SaveError("split/kmeans/14/0.25", v)
	cp.SaveError("split/kmeans/14/0.25", 999) // duplicate: ignored
	res := (&TimingSummary{Cycles: 123456, PerCoreCycles: []uint64{1, 2, 3, 4}, Instructions: 42}).Result()
	cp.SaveTiming("split/kmeans/14/0.25", res)
	if cp.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cp.Len())
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a torn line, as if a kill arrived mid-write.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"error","key":"torn`)
	f.Close()

	re, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Errors()["split/kmeans/14/0.25"]; math.Float64bits(got) != math.Float64bits(v) {
		t.Fatalf("error round trip: %x vs %x", math.Float64bits(got), math.Float64bits(v))
	}
	if _, ok := re.Errors()["torn"]; ok {
		t.Fatal("torn record resurrected")
	}
	ts := re.Timings()["split/kmeans/14/0.25"]
	if ts == nil || ts.Cycles != 123456 || ts.Instructions != 42 || len(ts.PerCoreCycles) != 4 {
		t.Fatalf("timing round trip: %+v", ts)
	}
	// A primed runner serves the records without computing.
	r := NewRunner(0.05)
	r.Resume(re)
	got, err := r.errCache.Do("split/kmeans/14/0.25", func() (float64, error) {
		t.Fatal("resumed key recomputed")
		return 0, nil
	})
	if err != nil || math.Float64bits(got) != math.Float64bits(v) {
		t.Fatalf("resume served %x, %v", math.Float64bits(got), err)
	}
}

// TestCheckpointTruncatesWithoutResume verifies a fresh (non-resume) open
// discards stale records.
func TestCheckpointTruncatesWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, _ := OpenCheckpoint(path, false)
	cp.SaveError("old", 1)
	cp.Close()
	cp2, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if len(cp2.Errors()) != 0 || cp2.Len() != 0 {
		t.Fatal("truncating open kept stale records")
	}
}

// --- engine resilience (synthetic tasks, no simulations) ---

// TestEngineTaskPanicIsolated verifies a panicking task fails with the
// panic stack in its error while every other task still runs — the process
// survives a worker crash.
func TestEngineTaskPanicIsolated(t *testing.T) {
	r := NewRunner(1)
	r.Workers = 4
	var ran atomic.Int64
	tasks := []*task{
		{label: "crash", run: func(context.Context) error { panic("injected crash") }},
	}
	for i := 0; i < 6; i++ {
		tasks = append(tasks, &task{label: fmt.Sprintf("ok%d", i), run: func(context.Context) error {
			ran.Add(1)
			return nil
		}})
	}
	err := r.runTasks(context.Background(), tasks)
	if err == nil {
		t.Fatal("panicking task did not fail")
	}
	for _, want := range []string{"crash", "injected crash", "resilience_test.go"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
	if ran.Load() != 6 {
		t.Errorf("%d of 6 healthy tasks ran after the crash", ran.Load())
	}
}

// --- cancellation and resume with real simulations ---

// TestPrewarmCancelPrompt cancels a parallel prewarm mid-flight and checks
// it returns promptly, reports the cancellation, and leaks no goroutines
// (the gang scheduler and timing loops all unwind).
func TestPrewarmCancelPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	before := runtime.NumGoroutine()
	r := diffRunner(0.05, 4)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- r.PrewarmContext(ctx, diffGrid()) }()
	time.Sleep(100 * time.Millisecond) // let simulations start
	cancel()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("err = %v, want a cancellation", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled prewarm did not return")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked after cancel: %d > %d\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestCheckpointResumeBitIdentical simulates an interrupted sweep: a full
// run writes a checkpoint; a second run resumes from a truncated copy (as
// if killed partway), recomputes only what is missing, and must render
// byte-identical tables.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	grid := Grid{Benchmarks: []string{"kmeans"}, MapSpaces: []int{14}}
	render := func(r *Runner) string {
		t2, err := r.Table2()
		if err != nil {
			t.Fatal(err)
		}
		e, err := r.SplitError("kmeans", 14, BaseDataFrac)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.SplitTiming("kmeans", 14, BaseDataFrac)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s\n%x %d", t2.Format(), math.Float64bits(e), res.Cycles)
	}

	// Full run, checkpointed.
	pathA := filepath.Join(dir, "a.jsonl")
	cpA, err := OpenCheckpoint(pathA, false)
	if err != nil {
		t.Fatal(err)
	}
	a := NewRunner(0.05)
	a.Only = grid.Benchmarks
	a.Workers = 2
	a.Checkpoint = cpA
	if err := a.Prewarm(grid); err != nil {
		t.Fatal(err)
	}
	outA := render(a)
	cpA.Close()

	// Interrupted run: keep the schema header plus the first record, as if
	// SIGINT landed after one task.
	data, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("checkpoint has %d lines, want >= 3 (header plus records)", len(lines))
	}
	pathB := filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(pathB, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	cpB, err := OpenCheckpoint(pathB, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cpB.Close()
	b := NewRunner(0.05)
	b.Only = grid.Benchmarks
	b.Workers = 2
	b.Checkpoint = cpB
	b.Resume(cpB)
	if err := b.Prewarm(grid); err != nil {
		t.Fatal(err)
	}
	outB := render(b)

	if outA != outB {
		t.Fatalf("resumed run diverged:\n--- full ---\n%s\n--- resumed ---\n%s", outA, outB)
	}
	if got := b.errCache.Computes() + b.timeCache.Computes(); got >= a.errCache.Computes()+a.timeCache.Computes() {
		t.Errorf("resume recomputed everything: %d computes vs %d in the full run",
			got, a.errCache.Computes()+a.timeCache.Computes())
	}
}
