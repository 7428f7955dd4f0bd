package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Grid names the simulation points of the evaluation. Prewarm expands it
// into one baseline task per benchmark plus one task per functional or
// timing run, with every variant task depending on its benchmark's
// baseline (the traces it replays and the precise output it scores
// against).
type Grid struct {
	// Benchmarks restricts the grid (nil: the Runner's suite).
	Benchmarks []string
	// MapSpaces adds split runs at (m, BaseDataFrac) per map size (Fig 9).
	MapSpaces []int
	// DataFracs adds split runs at (BaseMapBits, frac) per data fraction
	// (Figs 10–12).
	DataFracs []float64
	// UniFracs adds uniDoppelgänger runs at (BaseMapBits, frac) (Fig 14).
	UniFracs []float64
	// Extras adds the extension configurations (alternative hashes,
	// tag-count-aware replacement, compressed data array).
	Extras bool
	// Faults adds fault-injection runs per organization and rate. Like
	// Extras it is explicit-only: FullGrid never enables it, because fault
	// runs triple the functional workload and only the fault-sweep table
	// reads them.
	Faults bool
	// Quality adds guarded fault-injection runs (functional plus two timing
	// replays) per guarded organization and rate, and the unguarded fault
	// runs the quality table's guard-off column reads. Explicit-only, like
	// Faults.
	Quality bool
}

// FullGrid covers every simulation the paper's tables and figures need.
func FullGrid(extras bool) Grid {
	return Grid{MapSpaces: MapSpaces, DataFracs: DataFracs, UniFracs: UniFracs, Extras: extras}
}

// GridFor returns the smallest grid covering the named entries of
// Experiments, so a partial run only simulates what its tables render.
// Unknown names conservatively widen to the full grid.
func GridFor(names ...string) Grid {
	var g Grid
	for _, n := range names {
		e, ok := ExperimentByName(n)
		if !ok {
			return FullGrid(true)
		}
		if e.Grid == nil {
			continue
		}
		if e.Grid.MapSpaces != nil {
			g.MapSpaces = e.Grid.MapSpaces
		}
		if e.Grid.DataFracs != nil {
			g.DataFracs = e.Grid.DataFracs
		}
		if e.Grid.UniFracs != nil {
			g.UniFracs = e.Grid.UniFracs
		}
		g.Extras = g.Extras || e.Grid.Extras
		g.Faults = g.Faults || e.Grid.Faults
		g.Quality = g.Quality || e.Grid.Quality
	}
	return g
}

// task is one node of the engine's dependency graph: a unit of simulation
// work that becomes runnable once every dependency has finished.
type task struct {
	label      string
	run        func(ctx context.Context) error
	waiting    int // unfinished dependencies
	dependents []*task
	skip       bool // a dependency failed; don't run
}

// Prewarm expands the grid into a dependency-aware task graph and executes
// it on a pool of r.Workers goroutines (0: GOMAXPROCS). Every task lands in
// the Runner's singleflight caches, so the table builders afterwards only
// format already-computed results — in the same deterministic benchmark
// order as a serial run, with bit-identical values (each simulation owns
// all its mutable state; scheduling order cannot reach it).
//
// On failure the first errors are returned joined; tasks downstream of a
// failed baseline are skipped.
func (r *Runner) Prewarm(g Grid) error {
	return r.PrewarmContext(context.Background(), g)
}

// PrewarmContext is Prewarm under a cancellable context: cancellation stops
// new tasks from starting, interrupts in-flight simulations at their next
// scheduling point, and returns once every worker has drained.
func (r *Runner) PrewarmContext(ctx context.Context, g Grid) error {
	benchmarks := g.Benchmarks
	if benchmarks == nil {
		benchmarks = r.Benchmarks()
	}
	var tasks []*task
	for _, name := range benchmarks {
		base := r.cellTask(Cell{Kind: "baseline-timing", Bench: name})
		tasks = append(tasks, base)
		for _, c := range r.gridCells(g, name) {
			t := r.cellTask(c)
			t.waiting = 1
			base.dependents = append(base.dependents, t)
			tasks = append(tasks, t)
		}
	}
	return r.runTasks(ctx, tasks)
}

// cellTask is the engine task that Runs c, labeled with its Key.
func (r *Runner) cellTask(c Cell) *task {
	return &task{label: c.Key(), run: func(ctx context.Context) error {
		_, err := r.Run(ctx, c)
		return err
	}}
}

// gridCells expands the grid for one benchmark into the cells that depend
// on its baseline, each once, in a fixed order.
func (r *Runner) gridCells(g Grid, name string) []Cell {
	var cells []Cell
	seen := map[string]bool{}
	add := func(c Cell) {
		c.Bench = name
		if !seen[c.Key()] {
			seen[c.Key()] = true
			cells = append(cells, c)
		}
	}
	split := func(m int, frac float64) {
		add(Cell{Kind: "split-error", M: m, Frac: frac})
		add(Cell{Kind: "split-timing", M: m, Frac: frac})
	}
	for _, m := range g.MapSpaces {
		split(m, BaseDataFrac)
	}
	for _, frac := range g.DataFracs {
		split(BaseMapBits, frac)
	}
	for _, frac := range g.UniFracs {
		add(Cell{Kind: "uni-error", M: BaseMapBits, Frac: frac})
		add(Cell{Kind: "uni-timing", M: BaseMapBits, Frac: frac})
	}
	if g.Extras {
		split(BaseMapBits, BaseDataFrac) // the column every extra is compared against
		for _, x := range extrasConfigs() {
			add(Cell{Kind: x.kind, Custom: x.tag})
		}
	}
	if g.Faults || g.Quality {
		for _, org := range FaultOrgs {
			for _, rate := range r.faultRates() {
				add(Cell{Kind: "fault-error", Org: org, Rate: rate})
			}
		}
	}
	if g.Quality {
		for _, org := range GuardedOrgs {
			for _, rate := range r.faultRates() {
				add(Cell{Kind: "quality-error", Org: org, Rate: rate})
				add(Cell{Kind: "quality-timing", Org: org, Rate: rate})
				add(Cell{Kind: "quality-timing", Org: org, Rate: rate, Guarded: true})
			}
		}
	}
	return cells
}

// runTasks drains a task graph through a bounded worker pool: tasks with no
// unfinished dependencies sit in the ready queue; finishing a task releases
// its dependents. Progress is reported through the Runner's serialized log
// as "[done/total]" lines. Errors do not stop independent work, but a
// cancelled context fails every task not yet started without running it.
func (r *Runner) runTasks(ctx context.Context, tasks []*task) error {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if len(tasks) == 0 {
		return nil
	}

	// Buffered to the graph size so completions never block on the queue
	// while holding the scheduler lock.
	ready := make(chan *task, len(tasks))
	var (
		mu      sync.Mutex
		errs    []error
		pending = len(tasks)
		done    int
		drained bool // ready has been closed
	)
	// completeLocked retires a task (run or skipped) and releases any
	// dependents that become ready; called with mu held.
	var completeLocked func(t *task, failed bool)
	completeLocked = func(t *task, failed bool) {
		done++
		pending--
		for _, d := range t.dependents {
			if failed {
				d.skip = true
			}
			d.waiting--
			if d.waiting == 0 {
				if d.skip {
					r.logf("[%d/%d] skip %s (dependency failed)", done+1, len(tasks), d.label)
					completeLocked(d, true)
				} else {
					ready <- d
				}
			}
		}
		// The skip cascade recurses through completeLocked, so an inner
		// frame may already have drained the graph.
		if pending == 0 && !drained {
			drained = true
			close(ready)
		}
	}

	for _, t := range tasks {
		if t.waiting == 0 {
			ready <- t
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ready {
				start := time.Now()
				err := ctx.Err()
				if err == nil {
					err = runTask(ctx, t)
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("%s: %w", t.label, err))
					r.logf("[%d/%d] FAIL %s: %v", done+1, len(tasks), t.label, err)
				} else {
					r.logf("[%d/%d] done %s (%.2fs)", done+1, len(tasks), t.label, time.Since(start).Seconds())
				}
				completeLocked(t, err != nil)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runTask executes one task behind a panic shield, so a crashing
// simulation fails its own task with the stack attached instead of killing
// the whole sweep process. A task is deterministic, so a failure is not
// retried: it would fail again.
func runTask(ctx context.Context, t *task) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return t.run(ctx)
}
