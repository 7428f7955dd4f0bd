package sweep

import "testing"

// TestExperimentGridsCoverTables pins that each experiment's grid covers
// every cell its tables read: after Prewarm(GridFor(name)) on a fresh
// Runner, Render computes nothing. A table reading a cell its grid omits
// would still render, only lazily and serially, so nothing else would
// notice. The static entries are not prewarmed (cmd/experiments skips the
// engine for them too) and must compute nothing at all.
func TestExperimentGridsCoverTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			r := NewRunner(0.05)
			r.Only = []string{"blackscholes"}
			r.FaultRates = []float64{1e-4}
			computes := func() [5]int64 {
				return [5]int64{r.base.Computes(), r.baseOut.Computes(),
					r.errCache.Computes(), r.timeCache.Computes(), r.qualityCache.Computes()}
			}
			if e.Grid != nil {
				if err := r.Prewarm(GridFor(e.Name)); err != nil {
					t.Fatal(err)
				}
			}
			before := computes()
			tables, err := r.Render(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("rendered no tables")
			}
			if after := computes(); after != before {
				t.Errorf("Render computed past the grid: (base, baseOut, err, time, quality) computes %v after Prewarm, %v after Render", before, after)
			}
			if e.Grid == nil && before != [5]int64{} {
				t.Errorf("static experiment computed %v", before)
			}
		})
	}
}
