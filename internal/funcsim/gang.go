//go:build go1.23

package funcsim

import (
	"context"
	"fmt"
	"iter"
	"runtime/debug"

	"doppelganger/internal/memdata"
)

// The gang serializes memory accesses in a fixed rotation. Core 0's kernel
// runs on the goroutine that called Run, the driver, and every other kernel
// runs as a coroutine (iter.Pull). When core 0 passes the turn, the driver
// resumes whichever core the last turn holder passed it to, one turn at a
// time, and returns to core 0's kernel when the turn comes round to it
// again. A running kernel therefore always holds the turn. A rotation of N
// live cores costs 2(N-1) coroutine switches (driver -> core -> driver for
// every core but 0), the floor for iter.Pull's asymmetric coroutines, and
// never touches the scheduler's run queue; a phase where a single core is
// the only runnable one switches not at all. Once core 0 retires, the
// driver resumes the remaining cores in a plain loop. The rotation is a
// fixed round-robin: barrier groups are released exactly at rotation
// boundaries, and a finished or crashed core retires at its own rotation
// slot, so the interleaving, and therefore every simulated result, is
// deterministic.
//
// Every turn is counted, and the run's context is polled every 4096 turns,
// as the timing simulator's event loop polls it, so a cancelled run stops
// within 4096 turns.
//
// Only one kernel runs at a time, and every switch orders memory, so the
// rotation bookkeeping needs no lock.
type gang struct {
	ctxs []*CoreCtx
	// resume[i] runs core i's coroutine until it passes the turn or its
	// kernel exits (nil for core 0, whose kernel runs on the driver).
	resume    []func() (struct{}, bool)
	doneFlags []bool
	atBarrier []bool
	live      int
	// waiting counts the cores at a barrier. A core waits only inside its
	// Barrier call, so it never retires while counted, and releases are
	// the only decrements.
	waiting int
	cur     int  // core holding the turn
	turns   uint // turns taken, for the cancellation poll
	// Scratch for releaseReadyGroups, indexed by barrier group.
	liveInGroup []int
	waitInGroup []int
	// done is the run's cancellation signal (nil for a context that is never
	// cancelled) and stopped records that a poll saw it fire; err is the
	// first kernel panic.
	done    <-chan struct{}
	stopped bool
	err     error
}

// nextRunnable returns the index of the core the turn should go to after
// from's turn: the next live, non-waiting core in rotation order. Crossing
// the end of the core list is the rotation boundary, where barrier groups
// whose live cores are all waiting get released; the scan runs only while
// some core waits. While any core is live there is a runnable one after
// the boundary: if every live core waits, every group's waiting count
// equals its live count and the whole gang is released.
func (g *gang) nextRunnable(from int) int {
	for i := from + 1; i < len(g.ctxs); i++ {
		if !g.doneFlags[i] && !g.atBarrier[i] {
			return i
		}
	}
	if g.waiting > 0 {
		g.releaseReadyGroups()
	}
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
			if c.group == grp && g.atBarrier[i] {
				g.atBarrier[i] = false
				g.waiting--
			}
		}
	}
}

// canceled counts one turn and reports whether the run is cancelled,
// polling the context every 4096 turns (a nil done channel never fires).
// Once a poll has seen the cancellation it is reported on every later turn.
func (g *gang) canceled() bool {
	g.turns++
	if g.turns&4095 == 0 {
		select {
		case <-g.done:
			g.stopped = true
		default:
		}
	}
	return g.stopped
}

// drive runs on the driver goroutine: it resumes the core holding the turn,
// one turn at a time, until the turn comes back to core 0 or no core is
// live. It reports false when a resumed core saw the run cancelled; that
// core's kernel has already unwound. A coroutine that ends otherwise has
// retired and passed the turn on.
func (g *gang) drive() bool {
	for g.cur != 0 && g.live > 0 {
		if _, ok := g.resume[g.cur](); !ok && g.stopped {
			return false
		}
	}
	return true
}

// CoreCtx is the per-core handle a workload kernel uses to touch memory.
// Kernels take turns in deterministic round-robin order, one memory access
// per turn, so functional results (and therefore application error) are
// reproducible run-to-run.
type CoreCtx struct {
	id    int
	group int // barrier group (program id in multiprogrammed runs)
	h     *Hierarchy
	g     *gang
	// yield suspends this core's coroutine until the driver resumes it; it
	// reports false once the run is cancelled. Core 0 has none.
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
// next runnable one it simply keeps the turn. Core 0 runs the other cores'
// turns itself (drive); any other core yields to the driver. Every turn
// counts toward the cancellation poll, so a lone cancellable kernel still
// unwinds.
func (c *CoreCtx) pass() {
	g := c.g
	if g.canceled() {
		panic(runCanceled{})
	}
	next := g.nextRunnable(c.id)
	if next == c.id {
		return
	}
	g.cur = next
	if c.id == 0 {
		if !g.drive() {
			panic(runCanceled{})
		}
		return
	}
	if !c.yield(struct{}{}) {
		panic(runCanceled{})
	}
}

// run executes the kernel (on the driver for core 0, on the core's coroutine
// otherwise) and retires the core at the slot where the kernel returned or
// crashed. A crash is captured here, where the kernel's stack is still on
// hand. A cancelled kernel does not retire: the run is being abandoned.
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
	c.g.waiting++
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
// containment. Core 0's kernel runs on the calling goroutine and the others
// on coroutines it resumes (see gang). ctx is checked on entry, so an
// already cancelled run executes no kernel code, and then polled every
// 4096 turns; when it is cancelled, every kernel unwinds from the turn it
// is suspended in, and ctx.Err() is returned once all of them have exited;
// the simulation state is then abandoned mid-flight (callers discard it). A
// kernel that panics is captured with its stack and returned as an error —
// the crash fails this run, never the process; the remaining kernels
// complete normally (a crashed core counts as finished, so its barrier
// group is not stranded).
func RunGroupedContext(ctx context.Context, h *Hierarchy, kernels []func(*CoreCtx), groups []int) error {
	n := len(kernels)
	if n == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	maxGroup := 0
	for _, grp := range groups {
		maxGroup = max(maxGroup, grp)
	}
	g := &gang{
		ctxs:        make([]*CoreCtx, n),
		resume:      make([]func() (struct{}, bool), n),
		doneFlags:   make([]bool, n),
		atBarrier:   make([]bool, n),
		live:        n,
		liveInGroup: make([]int, maxGroup+1),
		waitInGroup: make([]int, maxGroup+1),
		done:        ctx.Done(),
	}
	stop := make([]func(), n)
	// Stopping a suspended coroutine makes its yield report false, so its
	// kernel unwinds; stopping a finished or unstarted one is a no-op.
	defer func() {
		for _, s := range stop[1:] {
			s()
		}
	}()
	for i, kernel := range kernels {
		c := &CoreCtx{id: i, h: h, g: g}
		if groups != nil {
			c.group = groups[i]
		}
		g.ctxs[i] = c
		if i > 0 {
			g.resume[i], stop[i] = iter.Pull(func(yield func(struct{}) bool) {
				c.yield = yield
				c.run(kernel)
			})
		}
	}
	// Core 0 takes the first turn, on this goroutine; once it has retired,
	// the remaining cores take theirs in drive's plain loop.
	g.ctxs[0].run(kernels[0])
	if g.stopped || !g.drive() {
		return ctx.Err()
	}
	return g.err
}
