//go:build go1.23

package funcsim

import (
	"context"
	"fmt"
	"iter"
	"runtime/debug"

	"doppelganger/internal/memdata"
)

// The gang serializes memory accesses in a fixed rotation. Each kernel runs
// as a coroutine (iter.Pull), and the goroutine that called Run is the
// driver: it resumes whichever core the last turn holder passed the turn to.
// A running coroutine therefore always holds the turn, and a handoff is two
// direct coroutine switches (core -> driver -> next core) that never touch
// the scheduler's run queue; a phase where a single core is the only
// runnable one switches not at all. The rotation is a fixed round-robin:
// barrier groups are released exactly at rotation boundaries, and a finished
// or crashed core retires at its own rotation slot, so the interleaving, and
// therefore every simulated result, is deterministic.
//
// Only one coroutine or the driver runs at a time, and every switch orders
// memory, so the rotation bookkeeping needs no lock.
type gang struct {
	ctxs      []*CoreCtx
	doneFlags []bool
	atBarrier []bool
	live      int
	cur       int // core holding the turn
	// Scratch for releaseReadyGroups, indexed by barrier group.
	liveInGroup []int
	waitInGroup []int
	// done is the run's cancellation signal (nil for a context that is never
	// cancelled); err is the first kernel panic.
	done <-chan struct{}
	err  error
}

// nextRunnable returns the index of the core the turn should go to after
// from's turn: the next live, non-waiting core in rotation order. Crossing
// the end of the core list is the rotation boundary, where barrier groups
// whose live cores are all waiting get released. While any core is
// live there is a runnable one after the boundary: if every live core
// waits, every group's waiting count equals its live count and the whole
// gang is released.
func (g *gang) nextRunnable(from int) int {
	for i := from + 1; i < len(g.ctxs); i++ {
		if !g.doneFlags[i] && !g.atBarrier[i] {
			return i
		}
	}
	g.releaseReadyGroups()
	for i := 0; i < len(g.ctxs); i++ {
		if !g.doneFlags[i] && !g.atBarrier[i] {
			return i
		}
	}
	return -1
}

// releaseReadyGroups releases every barrier group whose live cores have all
// reached the barrier. A released core runs again once the rotation reaches
// it.
func (g *gang) releaseReadyGroups() {
	for i := range g.liveInGroup {
		g.liveInGroup[i], g.waitInGroup[i] = 0, 0
	}
	for i, c := range g.ctxs {
		if g.doneFlags[i] {
			continue
		}
		g.liveInGroup[c.group]++
		if g.atBarrier[i] {
			g.waitInGroup[c.group]++
		}
	}
	for grp, waiting := range g.waitInGroup {
		if waiting == 0 || waiting != g.liveInGroup[grp] {
			continue
		}
		for i, c := range g.ctxs {
			if c.group == grp {
				g.atBarrier[i] = false
			}
		}
	}
}

// canceled polls the run's context; a nil done channel never fires.
func (g *gang) canceled() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// CoreCtx is the per-core handle a workload kernel uses to touch memory.
// Kernels run as coroutines that take turns in deterministic round-robin
// order, one memory access per turn, so functional results (and therefore
// application error) are reproducible run-to-run.
type CoreCtx struct {
	id    int
	group int // barrier group (program id in multiprogrammed runs)
	h     *Hierarchy
	g     *gang
	// yield suspends this core's coroutine until the driver resumes it; it
	// reports false once the run is cancelled.
	yield func(struct{}) bool
}

// runCanceled is the panic a kernel unwinds with when the run's context is
// cancelled; run recovers it. Panic-unwind frees a kernel suspended mid-turn
// without threading a context through every workload kernel.
type runCanceled struct{}

// Core returns the core id of this context.
func (c *CoreCtx) Core() int { return c.id }

// pass ends this core's turn and hands the turn to the next runnable core,
// returning when this core's next turn begins. When this core is itself the
// next runnable one it simply keeps the turn (polling cancellation, so a
// lone cancellable kernel still unwinds between accesses).
func (c *CoreCtx) pass() {
	g := c.g
	next := g.nextRunnable(c.id)
	if next == c.id {
		if g.canceled() {
			panic(runCanceled{})
		}
		return
	}
	g.cur = next
	if !c.yield(struct{}{}) {
		panic(runCanceled{})
	}
}

// run executes the kernel on this core's coroutine and retires the core at
// the slot where the kernel returned or crashed. A crash is captured here,
// inside the coroutine, where the kernel's stack is still on hand. A
// cancelled kernel does not retire: the driver is already abandoning the run.
func (c *CoreCtx) run(kernel func(*CoreCtx)) {
	g := c.g
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(runCanceled); ok {
				return
			}
			if g.err == nil { // keep the first crash's stack
				g.err = fmt.Errorf("funcsim: kernel %d panicked: %v\n%s", c.id, r, debug.Stack())
			}
		}
		g.doneFlags[c.id] = true
		g.live--
		if g.live > 0 {
			g.cur = g.nextRunnable(c.id)
		}
	}()
	kernel(c)
}

// Work accounts n non-memory instructions (arithmetic between accesses).
// It only touches this core's trace state, so no turn is needed.
func (c *CoreCtx) Work(n int) {
	if c.h.rec != nil {
		c.h.rec.Work(c.id, n)
	}
}

// Barrier blocks until every live core in this core's barrier group has
// reached a Barrier call, mirroring the pthread barriers of the paper's
// data-parallel benchmarks. Cores that have already finished do not
// participate; in multiprogrammed runs each program is its own group.
func (c *CoreCtx) Barrier() {
	c.g.atBarrier[c.id] = true
	c.pass() // a waiting core is not runnable, so this returns on release
}

// LoadF32 reads a float32 through the hierarchy.
func (c *CoreCtx) LoadF32(addr memdata.Addr) float32 {
	v := c.h.LoadF32(c.id, addr)
	c.pass()
	return v
}

// StoreF32 writes a float32 through the hierarchy.
func (c *CoreCtx) StoreF32(addr memdata.Addr, v float32) {
	c.h.StoreF32(c.id, addr, v)
	c.pass()
}

// LoadF64 reads a float64 through the hierarchy.
func (c *CoreCtx) LoadF64(addr memdata.Addr) float64 {
	v := c.h.LoadF64(c.id, addr)
	c.pass()
	return v
}

// StoreF64 writes a float64 through the hierarchy.
func (c *CoreCtx) StoreF64(addr memdata.Addr, v float64) {
	c.h.StoreF64(c.id, addr, v)
	c.pass()
}

// LoadI32 reads an int32 through the hierarchy.
func (c *CoreCtx) LoadI32(addr memdata.Addr) int32 {
	v := c.h.LoadI32(c.id, addr)
	c.pass()
	return v
}

// StoreI32 writes an int32 through the hierarchy.
func (c *CoreCtx) StoreI32(addr memdata.Addr, v int32) {
	c.h.StoreI32(c.id, addr, v)
	c.pass()
}

// LoadU8 reads a byte through the hierarchy.
func (c *CoreCtx) LoadU8(addr memdata.Addr) uint8 {
	v := c.h.LoadU8(c.id, addr)
	c.pass()
	return v
}

// StoreU8 writes a byte through the hierarchy.
func (c *CoreCtx) StoreU8(addr memdata.Addr, v uint8) {
	c.h.StoreU8(c.id, addr, v)
	c.pass()
}

// Run executes one kernel per core in lockstep: memory accesses are granted
// round-robin, one per live core per rotation, so the interleaving (and thus
// all cache contents) is deterministic. Run returns when every kernel has
// finished. All cores share one barrier group.
func Run(h *Hierarchy, kernels []func(*CoreCtx)) {
	RunGrouped(h, kernels, nil)
}

// RunGrouped is Run with explicit barrier groups: groups[i] is core i's
// group, and a Barrier call only rendezvouses with live cores of the same
// group. Multiprogrammed runs give each program its own group so one
// program's barriers never wait on another's cores. A nil groups slice puts
// every core in group 0.
func RunGrouped(h *Hierarchy, kernels []func(*CoreCtx), groups []int) {
	if err := RunGroupedContext(context.Background(), h, kernels, groups); err != nil {
		// A background context is never cancelled, so the only possible error
		// is a captured kernel panic: re-raise it on the caller's goroutine,
		// where it is recoverable (the sweep memo turns it into a task error).
		panic(err)
	}
}

// RunGroupedContext is RunGrouped with cooperative cancellation and panic
// containment. The driver polls ctx between turns; when it is cancelled,
// every kernel unwinds from the turn it is suspended in, and ctx.Err() is
// returned once all of them have exited; the simulation state is then
// abandoned mid-flight (callers discard it). A kernel that panics is
// captured on its own coroutine and returned as an error carrying the stack
// — the crash fails this run, never the process; the remaining kernels
// complete normally (a crashed core counts as finished, so its barrier group
// is not stranded).
func RunGroupedContext(ctx context.Context, h *Hierarchy, kernels []func(*CoreCtx), groups []int) error {
	n := len(kernels)
	if n == 0 {
		return nil
	}
	maxGroup := 0
	for _, grp := range groups {
		maxGroup = max(maxGroup, grp)
	}
	g := &gang{
		ctxs:        make([]*CoreCtx, n),
		doneFlags:   make([]bool, n),
		atBarrier:   make([]bool, n),
		live:        n,
		liveInGroup: make([]int, maxGroup+1),
		waitInGroup: make([]int, maxGroup+1),
		done:        ctx.Done(),
	}
	resume := make([]func() (struct{}, bool), n)
	stop := make([]func(), n)
	// Stopping a suspended coroutine makes its yield report false, so its
	// kernel unwinds; stopping a finished or unstarted one is a no-op.
	defer func() {
		for _, s := range stop {
			s()
		}
	}()
	for i, kernel := range kernels {
		c := &CoreCtx{id: i, h: h, g: g}
		if groups != nil {
			c.group = groups[i]
		}
		g.ctxs[i] = c
		resume[i], stop[i] = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			c.run(kernel)
		})
	}
	// Core 0 takes the first turn.
	for g.live > 0 {
		if g.canceled() {
			return ctx.Err()
		}
		resume[g.cur]()
	}
	return g.err
}
