package sweep

import (
	"context"
	"fmt"
)

// DefaultFaultRates are the per-access fault probabilities the fault sweep
// evaluates by default: three decades from rare soft errors to heavy
// corruption, enough to show where each organization's degradation knee
// sits.
var DefaultFaultRates = []float64{1e-6, 1e-5, 1e-4}

// FaultOrgs are the LLC organizations the fault sweep compares, in table
// order: the conventional baseline, the paper's split Doppelgänger at the
// base configuration, and uniDoppelgänger at its Table 1 half-capacity
// point.
var FaultOrgs = []string{"baseline", "doppel", "uni"}

// faultRates returns the sweep's configured rates.
func (r *Runner) faultRates() []float64 {
	if len(r.FaultRates) > 0 {
		return r.FaultRates
	}
	return DefaultFaultRates
}

// FaultError measures application output error for one organization under
// fault injection at the given per-access rate, scored against the fault-
// free precise baseline output. The injector is seeded from (FaultSeed,
// task key) only, and every access in a functional run is serialized by
// the gang scheduler, so the fault sites — and therefore the error — are
// bit-identical at any worker count.
func (r *Runner) FaultError(name, org string, rate float64) (float64, error) {
	return r.cellError(context.Background(), Cell{Kind: "fault-error", Bench: name, Org: org, Rate: rate})
}

// FaultSweep renders the output-error-vs-fault-rate table: for every
// benchmark, the output error of each organization at each injection rate,
// plus per-organization average rows — the degradation curves that show how
// gracefully approximate caching absorbs soft errors relative to the
// precise baseline.
func (r *Runner) FaultSweep() (*Table, error) {
	rates := r.faultRates()
	cols := []string{"benchmark", "org"}
	for _, rate := range rates {
		cols = append(cols, fmt.Sprintf("err @%g", rate))
	}
	t := &Table{
		Title:   fmt.Sprintf("Fault sweep: output error vs per-access fault rate (seed %d, %s)", r.FaultSeed, r.FaultModel),
		Columns: cols,
		Notes: []string{
			"faults hit LLC data/tag arrays, map generation and DRAM fetches;",
			"error is measured against the fault-free precise baseline output.",
		},
	}
	sums := make(map[string][]float64, len(FaultOrgs))
	for _, org := range FaultOrgs {
		sums[org] = make([]float64, len(rates))
	}
	for _, name := range r.Benchmarks() {
		for _, org := range FaultOrgs {
			cells := []string{name, org}
			for i, rate := range rates {
				v, err := r.FaultError(name, org, rate)
				if err != nil {
					return nil, err
				}
				sums[org][i] += v
				cells = append(cells, pct(v))
			}
			t.AddRow(cells...)
		}
	}
	n := float64(len(r.Benchmarks()))
	for _, org := range FaultOrgs {
		cells := []string{"average", org}
		for i := range rates {
			cells = append(cells, pct(sums[org][i]/n))
		}
		t.AddRow(cells...)
	}
	return t, nil
}
