// Package timesim is the cycle-level timing simulator, standing in for the
// paper's FeS2 full-system simulator (§4). It replays the per-core memory
// traces recorded by the functional simulator against a live cache
// hierarchy (so hits, misses, Doppelgänger map computations and
// back-invalidations all happen for real) under a 4-wide, 80-entry-ROB
// out-of-order core model with MSHR-limited miss overlap, a single-banked
// LLC port, and a fixed-latency DRAM (Table 1).
package timesim

import (
	"context"
	"fmt"

	"doppelganger/internal/approx"
	"doppelganger/internal/cache"
	"doppelganger/internal/core"
	"doppelganger/internal/dram"
	"doppelganger/internal/faults"
	"doppelganger/internal/funcsim"
	"doppelganger/internal/memdata"
	"doppelganger/internal/metrics"
	"doppelganger/internal/quality"
	"doppelganger/internal/trace"
)

// Config is the timing model configuration; DefaultConfig reproduces the
// paper's Table 1.
type Config struct {
	Cores int
	Width int // dispatch width (instructions per cycle)
	ROB   int // reorder buffer entries
	MSHRs int // outstanding misses per core

	L1Lat  float64
	L2Lat  float64
	LLCLat float64
	MemLat float64

	// LLCPort is the bank occupancy per LLC operation; the Table 1 LLC is
	// single-banked, so concurrent requests serialize.
	LLCPort float64
	// EvictPenalty is the bank occupancy per invalidated tag / queued
	// writeback when a replacement triggers mass evictions (§3.5).
	EvictPenalty float64

	// MemOccupancy optionally serializes the memory channel: each off-chip
	// transfer occupies it for this many cycles (0, the Table 1 model,
	// means fixed latency with unlimited bandwidth).
	MemOccupancy float64
	// WBEntries optionally bounds the LLC writeback buffer: when this many
	// writebacks are in flight, further LLC operations stall until one
	// drains (0 means unbounded, the default).
	WBEntries int

	// DRAM optionally replaces the fixed MemLat with the banked open-row
	// model of internal/dram (nil keeps the Table 1 fixed-latency memory).
	DRAM *dram.Config

	// Faults optionally injects faults into the replayed LLC organization
	// and (when the DRAM model is enabled) the DRAM banks. nil keeps the
	// zero-cost disabled path.
	Faults *faults.Injector

	// Quality optionally attaches the online quality guard to the replayed
	// LLC organization, so guarded timing runs pay (and measure) the same
	// bypass behaviour as guarded functional runs. nil disables.
	Quality *quality.Controller

	// Metrics optionally receives what the run counted: the private caches,
	// MSI tracker, LLC organization and core model count in plain fields and
	// are published into it once, when the run returns; the DRAM model, when
	// enabled, counts into it per access. nil publishes nothing.
	Metrics *metrics.Registry
	// Trace optionally streams Chrome-trace events (LLC/memory-level
	// operations as duration events, back-invalidation bursts as instants)
	// with ts in simulated cycles. nil disables.
	Trace *metrics.TraceWriter
	// TracePID is this run's process lane in a shared trace; TraceLabel, if
	// non-empty, names the lane in the viewer.
	TracePID   int
	TraceLabel string
}

// DefaultConfig returns the paper's system configuration.
func DefaultConfig() Config {
	return Config{
		Cores: 4, Width: 4, ROB: 80, MSHRs: 8,
		L1Lat: 1, L2Lat: 3, LLCLat: 6, MemLat: 160,
		LLCPort: 1, EvictPenalty: 1,
	}
}

// Result summarizes a timing run.
type Result struct {
	Cycles        uint64   // wall-clock cycles (max over cores)
	PerCoreCycles []uint64 // per-core completion cycle
	Instructions  uint64   // total instructions retired
	Totals        core.Effects
	Hier          funcsim.Stats
}

// MemTraffic is the total off-chip traffic in blocks (Fig. 12's metric).
func (r *Result) MemTraffic() uint64 {
	return uint64(r.Totals.MemReads) + uint64(r.Totals.MemWrites)
}

// MPKI is LLC misses per thousand instructions.
func (r *Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Hier.LLCReads-r.Hier.LLCHits) / float64(r.Instructions) * 1000
}

// coreState tracks one core's progress through its trace.
type coreState struct {
	t        trace.Trace
	pos      int
	instr    uint64  // instructions dispatched so far
	dispatch float64 // cycle at which the next instruction may dispatch
	finish   float64 // completion time of the latest memory op

	// rob holds in-flight memory ops as (instruction index, completion
	// cycle) with monotone completion (in-order retirement).
	rob robRing
	// completed counts the ROB's oldest entries already complete at this
	// core's latest issue time: the ops no longer holding an MSHR. Issue
	// times only grow and completions are monotone, so the count carries
	// from one event to the next. It is kept only with a registry.
	completed int

	// Stall accounting: cycles the next op's issue was pushed back waiting
	// for ROB retirement / a free MSHR. Published at run end.
	robStall  float64
	mshrStall float64
}

type robEntry struct {
	instr    uint64
	complete float64
}

// robRing is a growable ring buffer of in-flight memory ops. Retirement
// used to re-slice a plain slice (rob = rob[1:]), which pinned every
// retired entry for the rest of the run and forced append to grow a fresh
// backing array over and over; the ring reuses one power-of-two array and
// reaches steady state after at most one growth past the ROB depth.
type robRing struct {
	buf  []robEntry // power-of-two length
	head int
	n    int
}

func (r *robRing) at(i int) *robEntry { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *robRing) popFront() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *robRing) push(e robEntry) {
	if r.n == len(r.buf) {
		grown := make([]robEntry, max(2*len(r.buf), 128))
		for i := 0; i < r.n; i++ {
			grown[i] = *r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

// ready computes the cycle at which this core's next memory op can issue,
// honoring dispatch width, ROB occupancy and MSHR limits. It does not touch
// shared state, so the scheduler can order cores by it.
func (cs *coreState) ready(cfg *Config) float64 {
	r := cs.t[cs.pos]
	t := cs.dispatch + float64(r.Gap)/float64(cfg.Width)
	nextInstr := cs.instr + uint64(r.Gap) + 1

	// ROB: this instruction cannot dispatch until instruction
	// nextInstr-ROB has retired. Retirement is in order, so the retire time
	// is the completion of the newest memory op at or before it.
	base := t
	for cs.rob.n > 0 && cs.rob.at(0).instr+uint64(cfg.ROB) <= nextInstr {
		if c := cs.rob.at(0).complete; c > t {
			t = c
		}
		cs.rob.popFront()
		if cs.completed > 0 {
			cs.completed--
		}
	}
	cs.robStall += t - base
	// MSHRs: at most MSHRs memory ops in flight. Completions are monotone,
	// so the ops still in flight at t are a suffix of the ROB, and the op
	// must wait until the MSHRs-th newest one completes.
	base = t
	if m := cfg.MSHRs; m > 0 && cs.rob.n >= m {
		t = max(t, cs.rob.at(cs.rob.n-m).complete)
	}
	cs.mshrStall += t - base
	return t
}

// coreQueue is a binary min-heap of cores by next-issue time: the sift of
// container/heap specialized to two parallel slices. Cores tied on time
// leave in the order this exact sift produces, and that order decides which
// core touches the shared LLC first, so any other queue (a lowest-index
// scan, say) changes simulated results.
type coreQueue struct {
	ids   []int
	times []float64
}

func (q *coreQueue) swap(i, j int) {
	q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
	q.times[i], q.times[j] = q.times[j], q.times[i]
}

// init establishes the heap order, as heap.Init does.
func (q *coreQueue) init() {
	for i := len(q.ids)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// down sifts entry i toward the leaves, as heap.Fix does. The event loop
// only ever replaces the root, and a root never needs to sift up.
func (q *coreQueue) down(i int) {
	n := len(q.ids)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && q.times[j2] < q.times[j] {
			j = j2
		}
		if !(q.times[j] < q.times[i]) {
			return
		}
		q.swap(i, j)
		i = j
	}
}

// occupancy counts, per observed value, the ROB and MSHR occupancies the
// core model sees after each dispatch: the plain state behind the two
// occupancy histograms. Both slices are indexed by value and kept the same
// length.
type occupancy struct{ rob, mshr []uint64 }

// count records one dispatch: rob ops in the ROB, mshr of them (never more)
// still in flight.
func (o *occupancy) count(rob, mshr int) {
	for rob >= len(o.rob) {
		o.rob = append(o.rob, 0)
		o.mshr = append(o.mshr, 0)
	}
	o.rob[rob]++
	o.mshr[mshr]++
}

// publish adds what a run counted to reg: the hierarchy's counters, the core
// model's instruction and stall counts, and the occupancy histograms, each
// value's occurrences in one bulk add. A nil registry is a no-op.
func publish(reg *metrics.Registry, h *funcsim.Hierarchy, cores []*coreState, instructions uint64, occ *occupancy) {
	if reg == nil {
		return
	}
	h.PublishMetrics(reg)
	var rs, ms float64
	for _, cs := range cores {
		rs += cs.robStall
		ms += cs.mshrStall
	}
	reg.Counter("timesim.instructions").Add(instructions)
	reg.Counter("timesim.rob_stall_cycles").Add(uint64(rs))
	reg.Counter("timesim.mshr_stall_cycles").Add(uint64(ms))
	for _, hist := range []struct {
		name   string
		bounds []float64
		counts []uint64
	}{
		{"timesim.rob_occupancy", []float64{4, 8, 16, 32, 48, 64, 80}, occ.rob},
		{"timesim.mshr_occupancy", []float64{1, 2, 4, 6, 8}, occ.mshr},
	} {
		hg := reg.Histogram(hist.name, hist.bounds)
		for v, n := range hist.counts {
			hg.ObserveN(float64(v), n)
		}
	}
}

// Run replays the traces against a fresh hierarchy whose LLC organization
// is built by llcb over a clone of the initial memory image. It panics only
// on a caller bug: a recording whose core count differs from cfg.Cores.
func Run(tr *trace.Recorder, initial *memdata.Store, ann *approx.Annotations,
	llcb func(st *memdata.Store, ann *approx.Annotations) core.LLC, cfg Config) *Result {
	res, err := RunContext(context.Background(), tr, initial, ann, llcb, cfg)
	if err != nil {
		// Background contexts are never cancelled, so err is the core-count
		// mismatch.
		panic(err)
	}
	return res
}

// RunContext is Run with cooperative cancellation: the event loop polls ctx
// every few thousand replayed accesses and returns (nil, ctx.Err()) when it
// is cancelled. With a non-cancellable context the run is identical to Run.
// A recording with a core count other than cfg.Cores is an error naming
// both counts. cfg.Metrics, if set, receives what the run counted on every
// return path, a cancelled run's partial counts included.
func RunContext(ctx context.Context, tr *trace.Recorder, initial *memdata.Store, ann *approx.Annotations,
	llcb func(st *memdata.Store, ann *approx.Annotations) core.LLC, cfg Config) (*Result, error) {
	if len(tr.Cores) != cfg.Cores {
		return nil, fmt.Errorf("timesim: recording has %d cores, configuration has %d", len(tr.Cores), cfg.Cores)
	}

	st := initial.Clone()
	llc := llcb(st, ann)
	hcfg := funcsim.Config{Cores: cfg.Cores, L1: l1Config(), L2: l2Config()}
	h := funcsim.New(hcfg, llc, st, ann, nil)
	h.AttachFaults(cfg.Faults)
	h.AttachQuality(cfg.Quality)
	if cfg.Trace != nil {
		if cfg.TraceLabel != "" {
			cfg.Trace.ProcessName(cfg.TracePID, cfg.TraceLabel)
		}
		for c := 0; c < cfg.Cores; c++ {
			cfg.Trace.ThreadName(cfg.TracePID, c, fmt.Sprintf("core %d", c))
		}
	}

	cores := make([]*coreState, cfg.Cores)
	for c := range cores {
		cores[c] = &coreState{t: tr.Cores[c]}
	}

	// Schedule cores by next issue time so shared-LLC state is touched in
	// timestamp order.
	q := &coreQueue{}
	for c, cs := range cores {
		if cs.pos < len(cs.t) {
			q.ids = append(q.ids, c)
			q.times = append(q.times, cs.ready(&cfg))
		}
	}
	q.init()

	var llcFree, memFree float64
	var wbDrain []float64 // in-flight writeback completion times (sorted)
	var instructions uint64
	// occ is nil without a registry, which skips the occupancy count
	// outright.
	var occ *occupancy
	if cfg.Metrics != nil {
		occ = &occupancy{}
	}
	var mem *dram.Memory
	if cfg.DRAM != nil {
		mem = dram.MustNew(*cfg.DRAM)
		mem.AttachMetrics(cfg.Metrics)
		mem.AttachFaults(cfg.Faults)
	}
	ctxDone := ctx.Done()
	var iter uint
	for len(q.ids) > 0 {
		if ctxDone != nil {
			// Poll cheaply: one counter increment per event, one channel check
			// every 4096 events.
			if iter&4095 == 0 {
				select {
				case <-ctxDone:
					publish(cfg.Metrics, h, cores, instructions, occ)
					return nil, ctx.Err()
				default:
				}
			}
			iter++
		}
		c := q.ids[0]
		cs := cores[c]
		t := q.times[0]
		r := cs.t[cs.pos]

		h.Replay(c, r)
		out := h.Last

		var lat float64
		switch out.Level {
		case 1:
			lat = cfg.L1Lat
		case 2:
			lat = cfg.L1Lat + cfg.L2Lat
		case 3:
			lat = cfg.L1Lat + cfg.L2Lat + cfg.LLCLat
		default:
			lat = cfg.L1Lat + cfg.L2Lat + cfg.LLCLat + cfg.MemLat
			if mem != nil {
				arrive := t + cfg.L1Lat + cfg.L2Lat + cfg.LLCLat
				lat = mem.Access(r.Addr, arrive) - t
			} else if cfg.MemOccupancy > 0 {
				// Serialize the off-chip channel: the fill transfer waits
				// for earlier transfers.
				arrive := t + cfg.L1Lat + cfg.L2Lat + cfg.LLCLat
				if memFree > arrive {
					lat += memFree - arrive
					arrive = memFree
				}
				memFree = arrive + cfg.MemOccupancy*float64(out.MemReads)
			}
		}
		complete := t + lat
		if cfg.WBEntries > 0 && out.MemWrites > 0 {
			// Drain completed writebacks, then stall if the buffer is full.
			for len(wbDrain) > 0 && wbDrain[0] <= t {
				wbDrain = wbDrain[1:]
			}
			for w := 0; w < out.MemWrites; w++ {
				if len(wbDrain) >= cfg.WBEntries {
					stallUntil := wbDrain[0]
					if stallUntil > complete {
						complete = stallUntil
					}
					wbDrain = wbDrain[1:]
				}
				drainAt := complete + cfg.MemLat
				if cfg.MemOccupancy > 0 {
					if memFree > complete {
						drainAt = memFree + cfg.MemOccupancy
					}
					memFree = drainAt
				}
				wbDrain = append(wbDrain, drainAt)
			}
		}
		if out.LLCAccesses > 0 {
			// Serialize on the single LLC bank and charge replacement work:
			// each invalidated tag and each queued writeback occupies the
			// bank (§3.5 multi-eviction handling).
			start := t + cfg.L1Lat + cfg.L2Lat
			if llcFree > start {
				complete += llcFree - start
				start = llcFree
			}
			occupancy := cfg.LLCPort*float64(out.LLCAccesses) +
				cfg.EvictPenalty*float64(out.LLCEvictions+out.MemWrites)
			llcFree = start + occupancy
		}

		if cfg.Trace != nil {
			if out.Level >= 3 {
				name, cat := "llc", "llc"
				if out.Level == 4 {
					name, cat = "mem", "mem"
				}
				cfg.Trace.Complete(cfg.TracePID, c, name, cat, t, lat)
			}
			if out.LLCEvictions > 0 {
				cfg.Trace.Instant(cfg.TracePID, c, "back-inval", "llc", t)
			}
		}

		// Account dispatch.
		cs.instr += uint64(r.Gap) + 1
		instructions += uint64(r.Gap) + 1
		cs.dispatch = t + 1/float64(cfg.Width)
		if cs.rob.n > 0 && cs.rob.at(cs.rob.n-1).complete > complete {
			complete = cs.rob.at(cs.rob.n - 1).complete // in-order retire
		}
		cs.rob.push(robEntry{instr: cs.instr, complete: complete})
		if occ != nil {
			for cs.completed < cs.rob.n && cs.rob.at(cs.completed).complete <= t {
				cs.completed++
			}
			occ.count(cs.rob.n, cs.rob.n-cs.completed)
		}
		if complete > cs.finish {
			cs.finish = complete
		}
		cs.pos++

		if cs.pos < len(cs.t) {
			q.times[0] = cs.ready(&cfg)
		} else {
			last := len(q.ids) - 1
			q.swap(0, last)
			q.ids = q.ids[:last]
			q.times = q.times[:last]
		}
		q.down(0)
	}

	publish(cfg.Metrics, h, cores, instructions, occ)
	res := &Result{
		PerCoreCycles: make([]uint64, cfg.Cores),
		Instructions:  instructions,
		Totals:        h.Totals,
		Hier:          h.Stats,
	}
	for c, cs := range cores {
		end := cs.finish
		if cs.dispatch > end {
			end = cs.dispatch
		}
		res.PerCoreCycles[c] = uint64(end)
		if uint64(end) > res.Cycles {
			res.Cycles = uint64(end)
		}
	}
	return res, nil
}

// The private-cache geometries of Table 1.
func l1Config() cache.Config { return cache.Config{Name: "L1", SizeBytes: 16 << 10, Ways: 4} }
func l2Config() cache.Config { return cache.Config{Name: "L2", SizeBytes: 128 << 10, Ways: 8} }
