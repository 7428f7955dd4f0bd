package funcsim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"doppelganger/internal/memdata"
)

// waitForGoroutines polls until the goroutine count drops back to at most
// want (cancellation unwinds kernels asynchronously after Run returns the
// error, but only by a few scheduler ticks).
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: %d > %d\n%s",
		runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
}

// TestGangContextCancelUnblocksKernels proves cooperative cancellation: a
// kernel cancels the run's context after a known access, and the run
// returns ctx.Err() having made at most 4096 more accesses (the context is
// polled every 4096 turns) plus one rotation of slack, and unwinds every
// kernel, including ones parked at a barrier that will never be released.
// The cases cover a full rotation of spinning cores, a lone spinning core 0
// on the driver, and core 0 parked at a barrier inside its resume loop
// while core 1 spins alone.
func TestGangContextCancelUnblocksKernels(t *testing.T) {
	const (
		cores    = 4
		cancelAt = 1000 // the canceling core's load that cancels the run
		bound    = 4096 + cores
	)
	for _, tc := range []struct {
		name     string
		spins    [cores]bool // the other cores wait at a barrier
		canceler int
	}{
		{"all cores spin", [cores]bool{true, true, true, true}, 2},
		{"core 0 spins alone", [cores]bool{true}, 0},
		{"core 0 waits while core 1 spins", [cores]bool{1: true}, 1},
	} {
		before := runtime.NumGoroutine()
		h, _ := testHierarchy(cores, nil)
		ctx, cancel := context.WithCancel(context.Background())
		var canceledAt uint64 // loads made when the context was cancelled
		passed := make([]bool, cores)
		kernels := make([]func(*CoreCtx), cores)
		for core, spins := range tc.spins {
			if !spins {
				kernels[core] = func(c *CoreCtx) {
					c.LoadI32(hitAddr(c.Core(), 0))
					c.Barrier() // never released: a spinning core never arrives
					passed[c.Core()] = true
				}
				continue
			}
			kernels[core] = func(c *CoreCtx) {
				for i := 1; ; i++ {
					c.LoadI32(hitAddr(c.Core(), i))
					if c.Core() == tc.canceler && i == cancelAt {
						canceledAt = h.Stats.Loads
						cancel()
					}
					// Give up well past the bound, so a gang that never
					// polls fails the test instead of hanging it.
					if canceledAt > 0 && h.Stats.Loads-canceledAt > 2*bound {
						return
					}
				}
			}
		}
		err := RunGroupedContext(ctx, h, kernels, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if after := h.Stats.Loads - canceledAt; canceledAt == 0 || after > bound {
			t.Errorf("%s: %d loads after the cancel at load %d, want at most %d", tc.name, after, canceledAt, bound)
		}
		for core, p := range passed {
			if p {
				t.Errorf("%s: core %d passed a barrier that was never complete", tc.name, core)
			}
		}
		waitForGoroutines(t, before)
	}
}

// TestGangContextPreCancelled verifies a run under an already-cancelled
// context returns ctx.Err() without running any kernel code (core 0's
// kernel would run on the caller's goroutine) and without leaking the
// coroutines it set up.
func TestGangContextPreCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	h, _ := testHierarchy(2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	started := false
	err := RunGroupedContext(ctx, h, []func(*CoreCtx){
		func(c *CoreCtx) {
			started = true
			for i := 0; ; i++ {
				c.LoadI32(memdata.Addr(0x1000 + (i%64)*64))
			}
		},
		func(c *CoreCtx) {
			started = true
			c.Barrier()
		},
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started || h.Stats.Loads+h.Stats.Stores != 0 {
		t.Errorf("a cancelled run executed kernel code: started %v, %d accesses", started, h.Stats.Loads+h.Stats.Stores)
	}
	waitForGoroutines(t, before)
}

// TestGangContextBackgroundMatchesRun verifies the context path with a
// non-cancellable context is behaviourally identical to Run: the per-core
// cancel channel stays nil and results match exactly.
func TestGangContextBackgroundMatchesRun(t *testing.T) {
	run := func(useCtx bool) int32 {
		h, st := testHierarchy(2, nil)
		kernels := []func(*CoreCtx){
			func(c *CoreCtx) {
				for i := 0; i < 50; i++ {
					c.StoreI32(0x100, c.LoadI32(0x100)+1)
				}
			},
			func(c *CoreCtx) {
				for i := 0; i < 50; i++ {
					c.StoreI32(0x100, c.LoadI32(0x100)*2%1000)
				}
			},
		}
		if useCtx {
			if err := RunGroupedContext(context.Background(), h, kernels, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			Run(h, kernels)
		}
		h.Flush()
		return st.ReadI32(0x100)
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("context path diverged: %d vs %d", a, b)
	}
}

// TestGangKernelPanicBecomesError verifies a crashing kernel fails the run,
// not the process: RunGroupedContext returns an error naming the core and
// carrying the panic stack, the other kernels complete normally (including
// their barriers — the crashed core counts as finished), and no goroutines
// leak. Core 0 crashes on the driver in one case; in the other, core 2
// crashes on its coroutine while core 0 waits at the barrier inside its
// resume loop.
func TestGangKernelPanicBecomesError(t *testing.T) {
	for _, crasher := range []int{0, 2} {
		before := runtime.NumGoroutine()
		h, _ := testHierarchy(3, nil)
		survivors := make([]bool, 3)
		kernels := make([]func(*CoreCtx), 3)
		for core := range kernels {
			kernels[core] = func(c *CoreCtx) {
				if c.Core() == crasher {
					for i := 0; i < 3; i++ {
						c.LoadI32(memdata.Addr(0x100 + i*64))
					}
					panic("synthetic kernel crash")
				}
				loads := 1 // core 1 keeps loading after the others stop
				if c.Core() == 1 {
					loads = 20
				}
				for i := 0; i < loads; i++ {
					c.LoadI32(memdata.Addr(0x1000 + c.Core()*0x1000 + i*64))
				}
				c.Barrier()
				survivors[c.Core()] = true
			}
		}
		err := RunGroupedContext(context.Background(), h, kernels, nil)
		if err == nil {
			t.Fatalf("core %d: kernel panic was swallowed", crasher)
		}
		for _, want := range []string{fmt.Sprintf("kernel %d", crasher), "synthetic kernel crash", "cancel_test.go"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("core %d: error %q missing %q", crasher, err, want)
			}
		}
		for core, ok := range survivors {
			if core != crasher && !ok {
				t.Errorf("core %d: surviving kernels did not finish: %v", crasher, survivors)
			}
		}
		waitForGoroutines(t, before)
	}
}

// TestGangPanicReRaisedWithoutContext verifies the non-context entry point
// re-raises a captured kernel panic on the caller's goroutine, where a
// recover (the sweep memo's shield) can convert it to a task error.
func TestGangPanicReRaisedWithoutContext(t *testing.T) {
	h, _ := testHierarchy(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("kernel panic was not re-raised to the caller")
		}
	}()
	Run(h, []func(*CoreCtx){func(c *CoreCtx) {
		c.LoadI32(0x100)
		panic("boom")
	}})
}
