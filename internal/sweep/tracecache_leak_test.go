package sweep

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// kmeansSplit is the cell the leak tests storm.
var kmeansSplit = Cell{Kind: "split-error", Bench: "kmeans", M: BaseMapBits, Frac: BaseDataFrac}

// waitGoroutines polls until the goroutine count settles at or below the
// budget, failing with a stack dump when it does not — the leak detector.
func waitGoroutines(t *testing.T, budget int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= budget {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d alive, budget %d\n%s",
		runtime.NumGoroutine(), budget, buf[:runtime.Stack(buf, true)])
}

// TestTraceCacheConcurrentCancelNoLeak storms one trace-cache entry with a
// mix of canceled and live contexts. Whichever caller ends up the
// singleflight leader, every goroutine must return (no worker or waiter may
// hang), nothing may leak, and a final call with a live context must still
// succeed — a canceled leader's error is forgotten, never cached.
func TestTraceCacheConcurrentCancelNoLeak(t *testing.T) {
	dir := t.TempDir()
	r := traceRunner(0.02, dir, "kmeans")
	before := runtime.NumGoroutine()

	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if i%2 == 0 {
				cancel() // half the callers arrive already canceled
			} else {
				defer cancel()
			}
			// Errors are expected (canceled leaders fail their waiters); what
			// must never happen is a hang or a wrong value.
			res, err := r.Run(ctx, kmeansSplit)
			if err == nil && res.Error < 0 {
				t.Errorf("caller %d: negative error value %v", i, res.Error)
			}
		}(i)
	}
	wg.Wait()

	// The memo must have forgotten any cancellation failure: a live-context
	// call now records (or replays) the capture normally.
	want, err := traceRunner(0.02, "", "kmeans").SplitError("kmeans", BaseMapBits, BaseDataFrac)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(context.Background(), kmeansSplit)
	if err != nil {
		t.Fatalf("live-context call after cancellation storm: %v", err)
	}
	if got.Error != want {
		t.Fatalf("post-storm value %v diverged from live %v", got.Error, want)
	}
	waitGoroutines(t, before+2)
}

// TestTraceCacheForgottenErrorUnderConcurrency verifies the failure-
// forgetting contract under concurrent replay-mode failures: N concurrent
// callers against an empty directory in strict replay mode must all fail
// (not deadlock, not leak), and flipping replay off must re-record on the
// next call instead of serving a poisoned memo entry.
func TestTraceCacheForgottenErrorUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	r := traceRunner(0.02, dir, "kmeans")
	r.TraceReplay = true
	before := runtime.NumGoroutine()

	const callers = 8
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.Run(context.Background(), kmeansSplit)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("strict replay against an empty trace dir succeeded")
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("unexpected cancellation error: %v", err)
		}
	}

	// The forgotten error: recording mode must now run live and persist.
	r.TraceReplay = false
	if _, err := r.Run(context.Background(), kmeansSplit); err != nil {
		t.Fatalf("recording call after replay failures: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("recording call persisted no capture")
	}
	waitGoroutines(t, before+2)
}
