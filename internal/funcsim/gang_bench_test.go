package funcsim

import (
	"context"
	"testing"

	"doppelganger/internal/memdata"
)

// gangBenchCores is the core count of the gang benchmarks: the paper's
// four-core CMP.
const gangBenchCores = 4

// hitAddr is the address of core's i-th load in the gang benchmarks: four
// blocks per core, all resident in the core's L1 after the first rotation.
func hitAddr(core, i int) memdata.Addr {
	return memdata.Addr(0x10000 + core*0x1000 + (i%4)*memdata.BlockSize)
}

// hitKernels returns one kernel per core, each doing its share of n L1-hit
// loads.
func hitKernels(n int) []func(*CoreCtx) {
	kernels := make([]func(*CoreCtx), gangBenchCores)
	for c := range kernels {
		share := n / gangBenchCores
		if c < n%gangBenchCores {
			share++
		}
		kernels[c] = func(ctx *CoreCtx) {
			for i := 0; i < share; i++ {
				ctx.LoadI32(hitAddr(ctx.Core(), i))
			}
		}
	}
	return kernels
}

// BenchmarkGangAccess measures one functional-simulator access through the
// gang: four cores doing L1-hit loads, so ns/op is the turn handoff plus an
// L1 hit. The direct sub-benchmark makes the same loads on the hierarchy
// with no gang, in the same rotation; the difference is the handoff cost.
func BenchmarkGangAccess(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		h, _ := testHierarchy(gangBenchCores, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := i % gangBenchCores
			h.LoadI32(c, hitAddr(c, i/gangBenchCores))
		}
	})
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, bc := range []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"cancellable", cancellable}} {
		b.Run(bc.name, func(b *testing.B) {
			h, _ := testHierarchy(gangBenchCores, nil)
			kernels := hitKernels(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			if err := RunGroupedContext(bc.ctx, h, kernels, nil); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestGangTurnZeroAllocs guards the handoff: once the gang is running, a
// full rotation of turns (one L1-hit load on each of four cores) allocates
// nothing, under a background and under a cancellable context. The rotation
// is measured from three places: core 0's turn, a rotation that starts and
// ends on core 0 while the driver resumes cores 1-3 for it; core 1's turn
// while core 0 runs; and core 1's turn after core 0 has retired, when the
// driver's plain loop resumes the other cores.
func TestGangTurnZeroAllocs(t *testing.T) {
	const warm, runs = 64, 200
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"cancellable", cancellable}} {
		for _, m := range []struct {
			name         string
			core         int
			core0Retires bool
		}{{"core 0", 0, false}, {"core 1", 1, false}, {"core 1 after core 0 retires", 1, true}} {
			h, _ := testHierarchy(gangBenchCores, nil)
			// The other cores keep loading for longer than the measuring core
			// measures, so every measured turn spans a full rotation of the
			// cores still live.
			kernels := hitKernels(gangBenchCores * (warm + runs + 8))
			if m.core0Retires {
				kernels[0] = func(c *CoreCtx) { c.LoadI32(hitAddr(0, 0)) }
			}
			var allocs float64
			kernels[m.core] = func(c *CoreCtx) {
				for i := 0; i < warm; i++ {
					c.LoadI32(hitAddr(c.Core(), i))
				}
				allocs = testing.AllocsPerRun(runs, func() { c.LoadI32(hitAddr(c.Core(), 0)) })
			}
			if err := RunGroupedContext(tc.ctx, h, kernels, nil); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%s, %s: a rotation of turns allocates %.1f, want 0", tc.name, m.name, allocs)
			}
		}
	}
}
