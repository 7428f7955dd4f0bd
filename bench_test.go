package doppelganger

// One benchmark per table and figure of the paper's evaluation (§5), plus
// micro-benchmarks of the core mechanisms and the hash-function ablation
// called out in DESIGN.md. The table/figure benches run the full experiment
// pipeline at reduced workload scale; `cmd/experiments -scale 1` regenerates
// the paper-scale numbers recorded in EXPERIMENTS.md.

import (
	"math/rand"
	"os"
	"testing"

	"doppelganger/internal/approx"
	"doppelganger/internal/bdi"
	"doppelganger/internal/core"
	"doppelganger/internal/memdata"
	"doppelganger/internal/sweep"
	"doppelganger/internal/trace"
)

// benchScale keeps the per-iteration experiment runs tractable.
const benchScale = 0.05

func newEval() *Evaluation { return NewEvaluation(benchScale, nil) }

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Table2()
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Fig2()
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Fig7()
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Fig8()
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Fig9()
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Fig10()
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Fig11()
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Fig12()
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Fig13()
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Fig14()
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newEval().Table3()
	}
}

// BenchmarkGridSerial and BenchmarkGridParallel measure the full dynamic
// simulation grid (all baselines plus every split/unified error and timing
// run) computed lazily on one goroutine versus fanned out over the engine's
// worker pool. On a machine with ≥4 CPUs the parallel run should beat the
// serial one by at least the number of independent benchmarks' worth of
// overlap; compare with:
//
//	go test -bench 'BenchmarkGrid(Serial|Parallel)' -benchtime 1x .
func BenchmarkGridSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := newEval()
		ev.Parallel(1)
		if err := ev.Prewarm(false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := newEval()
		ev.Parallel(0) // GOMAXPROCS workers
		if err := ev.Prewarm(false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuncSweep measures the functional error sweep the persistent
// trace cache accelerates: for every benchmark, the precise baseline plus
// the paper's split (Figs. 9–12) and uniDoppelgänger (Fig. 14) error cells.
// By default each iteration replays from a trace directory pre-populated
// outside the timer; with DOPPEL_BENCH_LIVE=1 every iteration executes the
// kernels live instead. bench_baseline_6.txt is committed from the live
// mode (`make bench-baseline`), so the speedup BENCH_6.json reports for
// this benchmark is the warm-replay-versus-live ratio — the trace
// substrate's acceptance number (≥3×).
func BenchmarkFuncSweep(b *testing.B) {
	dir := b.TempDir()
	if os.Getenv("DOPPEL_BENCH_LIVE") != "" {
		dir = "" // no trace cache: every cell runs its kernels
	}
	sweepOnce := func() {
		r := sweep.NewRunner(benchScale)
		r.TraceDir = dir
		for _, name := range r.Benchmarks() {
			for _, m := range sweep.MapSpaces {
				if _, err := r.SplitError(name, m, sweep.BaseDataFrac); err != nil {
					b.Fatal(err)
				}
			}
			for _, frac := range sweep.DataFracs {
				if _, err := r.SplitError(name, sweep.BaseMapBits, frac); err != nil {
					b.Fatal(err)
				}
			}
			for _, frac := range sweep.UniFracs {
				if _, err := r.UnifiedError(name, sweep.BaseMapBits, frac); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	sweepOnce() // populate the trace directory outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepOnce()
	}
}

// BenchmarkFuncSweepBatched is BenchmarkFuncSweep through the decoded-capture
// cache — the sweepd deployment, where one long-lived in-memory cache
// outlives every sweep over the trace directory. Each baseline capture is
// read and decoded once for the cache's lifetime instead of once per sweep,
// and baseline outputs are scored straight from their decoded captures, so
// a warm sweep rebuilds no hierarchy at all. The error cells' own captures
// stay out of the cache: each sweep reads and verifies them with the
// output-only decode. With DOPPEL_BENCH_LIVE=1 the cache has nothing to
// serve and every cell executes live, identical to BenchmarkFuncSweep — so
// against the committed live baseline this row is the single-pass
// substrate's speedup, and the gap over the FuncSweep row is the
// decoded-cache win over per-cell file replay.
func BenchmarkFuncSweepBatched(b *testing.B) {
	dir := b.TempDir()
	if os.Getenv("DOPPEL_BENCH_LIVE") != "" {
		dir = "" // no trace cache: every cell runs its kernels
	}
	cache := trace.NewDecodedCache(512 << 20)
	sweepOnce := func() {
		r := sweep.NewRunner(benchScale)
		r.TraceDir = dir
		r.DecodedCache = cache
		r.ReplayBatch = 8
		for _, name := range r.Benchmarks() {
			for _, m := range sweep.MapSpaces {
				if _, err := r.SplitError(name, m, sweep.BaseDataFrac); err != nil {
					b.Fatal(err)
				}
			}
			for _, frac := range sweep.DataFracs {
				if _, err := r.SplitError(name, sweep.BaseMapBits, frac); err != nil {
					b.Fatal(err)
				}
			}
			for _, frac := range sweep.UniFracs {
				if _, err := r.UnifiedError(name, sweep.BaseMapBits, frac); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	sweepOnce() // populate the trace directory and decoded cache untimed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepOnce()
	}
}

// --- micro-benchmarks of the core mechanisms ---

func benchCache(b *testing.B) (*core.Doppelganger, *memdata.Store, []memdata.Addr) {
	b.Helper()
	st := memdata.NewStore()
	const base = memdata.Addr(0x100000)
	ann := approx.MustAnnotations(approx.Region{
		Name: "r", Start: base, End: base + 1<<22, Type: memdata.F32, Min: 0, Max: 100,
	})
	d := core.MustNew(core.Config{
		Name:       "bench",
		TagEntries: 16 << 10, TagWays: 16,
		DataEntries: 4 << 10, DataWays: 16,
		MapSpec: approx.MapSpec{M: 14},
	}, st, ann)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]memdata.Addr, 8192)
	for i := range addrs {
		addrs[i] = base + memdata.Addr(i*memdata.BlockSize)
		blk := st.Block(addrs[i])
		v := float64(rng.Intn(64)) // 64 value classes: plenty of sharing
		for e := 0; e < 16; e++ {
			blk.SetElem(memdata.F32, e, v)
		}
	}
	return d, st, addrs
}

// BenchmarkDoppelReadHit measures the tag→MTag→data lookup path (§3.2).
func BenchmarkDoppelReadHit(b *testing.B) {
	d, _, addrs := benchCache(b)
	for _, a := range addrs {
		d.Read(a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(addrs[i%len(addrs)])
	}
}

// BenchmarkDoppelInsert measures the miss path: map generation, MTag probe
// and tag linking (§3.3).
func BenchmarkDoppelInsert(b *testing.B) {
	d, _, addrs := benchCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		d.EvictFor(a)
		d.Read(a)
	}
}

// BenchmarkDoppelWriteBack measures the §3.4 write path (map recompute and
// possible migration).
func BenchmarkDoppelWriteBack(b *testing.B) {
	d, st, addrs := benchCache(b)
	for _, a := range addrs {
		d.Read(a)
	}
	payload := st.Block(addrs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteBack(addrs[i%len(addrs)], payload)
	}
}

// BenchmarkMapGeneration measures the average+range hash and mapping step
// alone (the hardware spends 21 FMA ops ≈ 168 pJ on this, §5.6).
func BenchmarkMapGeneration(b *testing.B) {
	r := &approx.Region{Name: "r", Start: 0, End: 1 << 20, Type: memdata.F32, Min: 0, Max: 100}
	spec := approx.MapSpec{M: 14}
	var blk memdata.Block
	for e := 0; e < 16; e++ {
		blk.SetElem(memdata.F32, e, float64(e)*3.7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.MapValue(&blk, r)
	}
}

// BenchmarkBDICompress measures the BΔI comparator's encoder.
func BenchmarkBDICompress(b *testing.B) {
	var blk memdata.Block
	for i := 0; i < 16; i++ {
		blk.SetElem(memdata.I32, i, float64(100000+i*7))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bdi.CompressedSize(&blk)
	}
}

// BenchmarkAblationCompressedData compares the plain data array against the
// BΔI-compressed variant (the paper's §5.1 Doppelgänger+BΔI combination) at
// the same SRAM byte budget: the compressed array uses half the bytes per
// set but holds compressible payloads at near-full effective capacity.
func BenchmarkAblationCompressedData(b *testing.B) {
	type variant struct {
		name string
		cfg  func(core.Config) core.Config
	}
	variants := []variant{
		{"plain-full", func(c core.Config) core.Config { return c }},
		{"plain-half-entries", func(c core.Config) core.Config {
			c.DataEntries /= 2 // same SRAM bytes as the compressed variant
			return c
		}},
		{"compressed-half-bytes", func(c core.Config) core.Config {
			c.CompressedData = true
			c.CompressBudget = 0.5
			return c
		}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var hitRate float64
			for i := 0; i < b.N; i++ {
				st := memdata.NewStore()
				const base = memdata.Addr(0x100000)
				ann := approx.MustAnnotations(approx.Region{
					Name: "r", Start: base, End: base + 1<<22, Type: memdata.F32, Min: 0, Max: 100,
				})
				cfg := v.cfg(core.Config{
					Name:       "abl",
					TagEntries: 1 << 10, TagWays: 16,
					DataEntries: 256, DataWays: 16,
					MapSpec: approx.MapSpec{M: 14},
				})
				d := core.MustNew(cfg, st, ann)
				rng := rand.New(rand.NewSource(21))
				// Mostly compressible blocks (smooth sensor frames), some noise.
				for a := 0; a < 512; a++ {
					blk := st.Block(base + memdata.Addr(a*memdata.BlockSize))
					v0 := float64(a % 97)
					for e := 0; e < 16; e++ {
						if a%5 == 0 {
							blk.SetElem(memdata.F32, e, rng.Float64()*100)
						} else {
							blk.SetElem(memdata.F32, e, v0)
						}
					}
				}
				for n := 0; n < 20000; n++ {
					a := rng.Intn(512)
					d.Read(base + memdata.Addr(a*memdata.BlockSize))
				}
				hitRate = float64(d.Stats.ReadHits) / float64(d.Stats.Reads)
			}
			b.ReportMetric(hitRate*100, "%hit")
		})
	}
}

// --- ablation: hash-function choice (DESIGN.md §3.1) ---

// ablationSavings measures, for one hash variant, both the storage savings
// (fewer unique keys = more sharing) and the bad-merge rate: the fraction of
// blocks that share a key with a block of a *different shape* (uniform vs
// steep-gradient blocks with the same mean). The paper's combined
// average+range hash exists precisely to keep savings while rejecting those
// bad merges — an average-only hash cannot tell a flat block from a ramp.
func ablationSavings(mode string) (savings, badMerge float64) {
	rng := rand.New(rand.NewSource(42))
	r := &approx.Region{Name: "r", Start: 0, End: 1 << 24, Type: memdata.F32, Min: 0, Max: 100}
	spec := approx.MapSpec{M: 14}
	const blocks = 4096
	type group struct {
		flat, ramp, total  int
		centerLo, centerHi float64
	}
	groups := make(map[uint64]*group)
	for i := 0; i < blocks; i++ {
		var blk memdata.Block
		center := 10 + float64(rng.Intn(32))*2.5
		isRamp := i%2 == 1
		for e := 0; e < 16; e++ {
			v := center
			if isRamp {
				v = center + 12*(float64(e)-7.5)/7.5 // same mean, wide spread
			}
			blk.SetElem(memdata.F32, e, v)
		}
		avg, rg := approx.BlockHashes(&blk, r)
		var key uint64
		switch mode {
		case "avg":
			key = uint64(avg / 100 * (1 << 14))
		case "range":
			key = uint64(rg / 100 * (1 << 14))
		default:
			key = uint64(spec.MapValue(&blk, r))
		}
		g := groups[key]
		if g == nil {
			g = &group{centerLo: center, centerHi: center}
			groups[key] = g
		}
		g.total++
		if isRamp {
			g.ramp++
		} else {
			g.flat++
		}
		if center < g.centerLo {
			g.centerLo = center
		}
		if center > g.centerHi {
			g.centerHi = center
		}
	}
	// A merge is bad if a group mixes shapes (flat with ramp) or spans
	// centers farther apart than any reasonable similarity tolerance.
	bad := 0
	for _, g := range groups {
		if (g.flat > 0 && g.ramp > 0) || g.centerHi-g.centerLo > 2 {
			bad += g.total
		}
	}
	return 1 - float64(len(groups))/float64(blocks), float64(bad) / float64(blocks)
}

// BenchmarkAblationReplacement compares the paper's LRU data-array
// replacement against the tag-count-aware extension (§3.5 future work) on a
// reuse-heavy stream, reporting LLC hit rate and tag-eviction burden.
func BenchmarkAblationReplacement(b *testing.B) {
	for _, policy := range []core.DataReplacement{core.ReplaceLRU, core.ReplaceTagCountAware} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			var hitRate, evictsPerKAccess float64
			for i := 0; i < b.N; i++ {
				st := memdata.NewStore()
				const base = memdata.Addr(0x100000)
				ann := approx.MustAnnotations(approx.Region{
					Name: "r", Start: base, End: base + 1<<22, Type: memdata.F32, Min: 0, Max: 100,
				})
				d := core.MustNew(core.Config{
					Name:       "abl",
					TagEntries: 1 << 10, TagWays: 16,
					DataEntries: 128, DataWays: 16,
					MapSpec:    approx.MapSpec{M: 14},
					DataPolicy: policy,
				}, st, ann)
				rng := rand.New(rand.NewSource(9))
				for a := 0; a < 768; a++ {
					blk := st.Block(base + memdata.Addr(a*memdata.BlockSize))
					v := float64(rng.Intn(48)) * 2 // 48 shared value classes
					if a%3 == 0 {
						v = 50 + float64(a)*0.013 // singletons
					}
					for e := 0; e < 16; e++ {
						blk.SetElem(memdata.F32, e, v)
					}
				}
				for n := 0; n < 20000; n++ {
					a := rng.Intn(768)
					if rng.Intn(4) > 0 {
						a = rng.Intn(192) // hot subset
					}
					d.Read(base + memdata.Addr(a*memdata.BlockSize))
				}
				hitRate = float64(d.Stats.ReadHits) / float64(d.Stats.Reads)
				evictsPerKAccess = float64(d.Stats.TagEvictions) / float64(d.Stats.Reads) * 1000
			}
			b.ReportMetric(hitRate*100, "%hit")
			b.ReportMetric(evictsPerKAccess, "tagevict/kacc")
		})
	}
}

// BenchmarkAblationHash reports each variant's savings and bad-merge rate
// as custom metrics while measuring its cost. Expected shape: avg-only has
// high savings but a high bad-merge rate; the combined hash keeps nearly
// the same savings with (close to) zero bad merges.
func BenchmarkAblationHash(b *testing.B) {
	for _, mode := range []string{"avg", "range", "combined"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var savings, bad float64
			for i := 0; i < b.N; i++ {
				savings, bad = ablationSavings(mode)
			}
			b.ReportMetric(savings*100, "%savings")
			b.ReportMetric(bad*100, "%badmerge")
		})
	}
}
