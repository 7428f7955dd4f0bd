// Differential tests: every run counts in the simulation layers' plain
// fields and publishes them into its registry when it returns. For real
// workloads on every LLC organization, each published name must hold the
// field it stands for. The file lives in an external test package so it can
// drive whole benchmarks through internal/workloads.
package timesim_test

import (
	"fmt"
	"sync"
	"testing"

	"doppelganger/internal/core"
	"doppelganger/internal/metrics"
	"doppelganger/internal/timesim"
	"doppelganger/internal/workloads"
)

// diffScale keeps each benchmark run to a few milliseconds while still
// overflowing the private caches.
const diffScale = 0.02

var diffBenchmarks = []string{"blackscholes", "jpeg", "kmeans"}

// checkFunctional compares a functional run's registry against every
// counter the hierarchy and the LLC organization maintain.
func checkFunctional(reg *metrics.Registry, run *workloads.RunResult) error {
	s := run.Hier.Stats
	tot := run.Hier.Totals
	checks := []struct {
		name string
		want uint64
	}{
		{"funcsim.loads", s.Loads},
		{"funcsim.stores", s.Stores},
		{"funcsim.l1.hits", s.L1Hits},
		{"funcsim.l1.misses", s.L1Misses},
		{"funcsim.l2.hits", s.L2Hits},
		{"funcsim.l2.misses", s.L2Misses},
		{"funcsim.llc.reads", s.LLCReads},
		{"funcsim.llc.hits", s.LLCHits},
		{"funcsim.dirty_backinval_writes", s.DirtyBackInvalWrites},
		{"funcsim.remote_writebacks", s.RemoteWritebacks},
		{"coherence.back_invalidations", s.BackInvals},
		{"funcsim.llc.mem_reads", uint64(tot.MemReads)},
		{"funcsim.llc.mem_writes", uint64(tot.MemWrites)},
		{"funcsim.llc.map_gens", uint64(tot.MapGens)},
		{"cache.l1.hits", s.L1Hits},
		{"cache.l1.misses", s.L1Misses},
		{"cache.l2.hits", s.L2Hits},
		{"cache.l2.misses", s.L2Misses},
	}

	// Doppelgänger-side counters (post-flush, i.e. the live Stats, not the
	// pre-flush snapshot RunResult keeps for the tables).
	var dopp *core.Doppelganger
	switch l := run.LLC.(type) {
	case *core.Split:
		dopp = l.Doppel
	case *core.Doppelganger:
		dopp = l
	}
	if dopp != nil {
		ds := dopp.Stats
		pre := "core." + dopp.Config().Name + "."
		checks = append(checks, []struct {
			name string
			want uint64
		}{
			{pre + "reads", ds.Reads},
			{pre + "read_hits", ds.ReadHits},
			{pre + "writebacks", ds.WriteBacks},
			{pre + "silent_writes", ds.SilentWrites},
			{pre + "remaps", ds.Remaps},
			{pre + "write_allocs", ds.WriteAllocs},
			{pre + "writeback_misses", ds.WritebackMisses},
			{pre + "inserts", ds.Inserts},
			{pre + "reuse_links", ds.ReuseLinks},
			{pre + "new_data_blocks", ds.NewDataBlocks},
			{pre + "tag_evictions", ds.TagEvictions},
			{pre + "dirty_tag_evictions", ds.DirtyTagEvictions},
			{pre + "data_evictions", ds.DataEvictions},
			{pre + "map_gens", ds.MapGens},
			{pre + "approx_substitutions", ds.ReuseLinks + ds.Remaps},
		}...)
		// The occupancy levels must have tracked every insert/evict down to
		// the post-flush state.
		if got, want := reg.GaugeValue(pre+"tags_occupied"), int64(dopp.TagEntries()); got != want {
			return fmt.Errorf("gauge %stags_occupied = %d, live occupancy = %d", pre, got, want)
		}
		if got, want := reg.GaugeValue(pre+"data_occupied"), int64(dopp.DataBlocks()); got != want {
			return fmt.Errorf("gauge %sdata_occupied = %d, live occupancy = %d", pre, got, want)
		}
	}
	for _, c := range checks {
		if got := reg.CounterValue(c.name); got != c.want {
			return fmt.Errorf("metric %s = %d, counter = %d", c.name, got, c.want)
		}
	}
	return nil
}

func diffBuilders() map[string]workloads.LLCBuilder {
	return map[string]workloads.LLCBuilder{
		"baseline": workloads.BaselineBuilder(2<<20, 16),
		"split":    workloads.SplitBuilder(14, 0.25),
		"unified":  workloads.UnifiedBuilder(14, 0.5),
	}
}

// TestDifferentialFunctional runs each benchmark functionally against each
// LLC organization with a dedicated registry and checks that the published
// registry equals the counters exactly.
func TestDifferentialFunctional(t *testing.T) {
	if testing.Short() {
		t.Skip("full-benchmark differential check")
	}
	for llcName, builder := range diffBuilders() {
		for _, bench := range diffBenchmarks {
			t.Run(llcName+"/"+bench, func(t *testing.T) {
				t.Parallel()
				f, err := workloads.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				reg := metrics.NewRegistry()
				run := workloads.RunFunctional(f.New(diffScale), builder,
					workloads.RunOptions{Cores: 4, Metrics: reg})
				if err := checkFunctional(reg, run); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestDifferentialTiming records each benchmark once and replays it against
// each organization with a dedicated registry; Result.CrossCheck checks the
// timing-side publication (including the core model) against the result.
func TestDifferentialTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("full-benchmark differential check")
	}
	for _, bench := range diffBenchmarks {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			f, err := workloads.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			rec := workloads.RunFunctional(f.New(diffScale), workloads.BaselineBuilder(2<<20, 16),
				workloads.RunOptions{Cores: 4, Record: true})
			for llcName, builder := range diffBuilders() {
				reg := metrics.NewRegistry()
				cfg := timesim.DefaultConfig()
				cfg.Cores = 4
				cfg.Metrics = reg
				res := timesim.Run(rec.Recorder, rec.InitialMem, rec.Annotations, builder, cfg)
				if err := res.CrossCheck(reg); err != nil {
					t.Errorf("%s: %v", llcName, err)
				}
				if got := reg.CounterValue("timesim.instructions"); got != res.Instructions {
					t.Errorf("%s: instructions metric %d != result %d", llcName, got, res.Instructions)
				}
			}
		})
	}
}

// TestSharedRegistryAggregates has several concurrent runs publish into ONE
// registry and checks the aggregate equals the sum of the per-run counters —
// the property the sweep runner's per-task merge relies on. Under `go test
// -race` it also exercises concurrent publishes.
func TestSharedRegistryAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("full-benchmark differential check")
	}
	shared := metrics.NewRegistry()
	var mu sync.Mutex
	var wantLoads, wantInstr uint64
	var wg sync.WaitGroup
	for _, bench := range diffBenchmarks {
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			f, err := workloads.ByName(bench)
			if err != nil {
				t.Error(err)
				return
			}
			run := workloads.RunFunctional(f.New(diffScale), workloads.BaselineBuilder(2<<20, 16),
				workloads.RunOptions{Cores: 4, Record: true, Metrics: shared})
			cfg := timesim.DefaultConfig()
			cfg.Cores = 4
			cfg.Metrics = shared
			res := timesim.Run(run.Recorder, run.InitialMem, run.Annotations,
				workloads.SplitBuilder(14, 0.25), cfg)
			mu.Lock()
			wantLoads += run.Hier.Stats.Loads + res.Hier.Loads
			wantInstr += res.Instructions
			mu.Unlock()
		}(bench)
	}
	wg.Wait()
	if got := shared.CounterValue("funcsim.loads"); got != wantLoads {
		t.Errorf("aggregate funcsim.loads = %d, sum of runs = %d", got, wantLoads)
	}
	if got := shared.CounterValue("timesim.instructions"); got != wantInstr {
		t.Errorf("aggregate timesim.instructions = %d, sum of runs = %d", got, wantInstr)
	}
}
