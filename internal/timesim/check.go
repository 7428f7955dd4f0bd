package timesim

import (
	"fmt"

	"doppelganger/internal/metrics"
)

// CrossCheck verifies that reg, the registry this run published into, holds
// the Result's counters under the names the run publishes them as. Each
// event is counted once, in the hierarchy's and the core model's plain
// fields, so the check guards the mapping from published name to field. It
// returns nil when reg is nil.
//
// The check is only meaningful when the registry was dedicated to this run:
// a registry shared across runs accumulates counts from all of them.
func (r *Result) CrossCheck(reg *metrics.Registry) error {
	if reg == nil {
		return nil
	}
	checks := []struct {
		name string
		want uint64
	}{
		// Hierarchy events vs funcsim.Stats.
		{"funcsim.loads", r.Hier.Loads},
		{"funcsim.stores", r.Hier.Stores},
		{"funcsim.l1.hits", r.Hier.L1Hits},
		{"funcsim.l1.misses", r.Hier.L1Misses},
		{"funcsim.l2.hits", r.Hier.L2Hits},
		{"funcsim.l2.misses", r.Hier.L2Misses},
		{"funcsim.llc.reads", r.Hier.LLCReads},
		{"funcsim.llc.hits", r.Hier.LLCHits},
		{"funcsim.dirty_backinval_writes", r.Hier.DirtyBackInvalWrites},
		{"funcsim.remote_writebacks", r.Hier.RemoteWritebacks},
		{"coherence.back_invalidations", r.Hier.BackInvals},
		// LLC structure effects vs core.Effects totals.
		{"funcsim.llc.mem_reads", uint64(r.Totals.MemReads)},
		{"funcsim.llc.mem_writes", uint64(r.Totals.MemWrites)},
		{"funcsim.llc.map_gens", uint64(r.Totals.MapGens)},
		// Private array events, counted in each array's own Stats. L1/L2
		// Lookup is called exactly once per hierarchy probe, so the
		// array-level and hierarchy-level counts must coincide.
		{"cache.l1.hits", r.Hier.L1Hits},
		{"cache.l1.misses", r.Hier.L1Misses},
		{"cache.l2.hits", r.Hier.L2Hits},
		{"cache.l2.misses", r.Hier.L2Misses},
		// Core model.
		{"timesim.instructions", r.Instructions},
	}
	for _, c := range checks {
		if got := reg.CounterValue(c.name); got != c.want {
			return fmt.Errorf("timesim: metric %s = %d, result counter = %d", c.name, got, c.want)
		}
	}
	return nil
}
