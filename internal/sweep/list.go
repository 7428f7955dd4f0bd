package sweep

import "fmt"

// Experiment is one entry of the evaluation: a named set of tables, the
// simulations they read, and how they render.
type Experiment struct {
	// Name selects the experiment on the experiments command line and in
	// sweepd's figure jobs.
	Name string
	// InAll reports whether "all" selects it: the paper's tables and figures
	// do; the extras, faults and quality tables are requested by name.
	InAll bool
	// Grid is what Prewarm must run for the tables to render from warm
	// caches (GridFor folds these). nil marks a static table, which reads
	// no simulation at all; an empty Grid still runs the baselines.
	Grid *Grid

	render func(*Runner) ([]*Table, error)
}

// Experiments is the evaluation in print order: the paper's §5 tables and
// figures, then this repository's extras, fault and quality sweeps.
var Experiments = []Experiment{
	{Name: "table2", InAll: true, Grid: &Grid{}, render: one((*Runner).Table2)},
	{Name: "fig2", InAll: true, Grid: &Grid{}, render: one((*Runner).Fig2)},
	{Name: "fig7", InAll: true, Grid: &Grid{}, render: one((*Runner).Fig7)},
	{Name: "fig8", InAll: true, Grid: &Grid{}, render: one((*Runner).Fig8)},
	{Name: "fig9", InAll: true, Grid: &Grid{MapSpaces: MapSpaces}, render: two((*Runner).Fig9)},
	{Name: "fig10", InAll: true, Grid: &Grid{DataFracs: DataFracs}, render: two((*Runner).Fig10)},
	{Name: "fig11", InAll: true, Grid: &Grid{DataFracs: DataFracs}, render: two((*Runner).Fig11)},
	{Name: "fig12", InAll: true, Grid: &Grid{DataFracs: DataFracs}, render: one((*Runner).Fig12)},
	{Name: "fig13", InAll: true, render: static((*Runner).Fig13)},
	{Name: "fig14", InAll: true, Grid: &Grid{UniFracs: UniFracs}, render: three((*Runner).Fig14)},
	{Name: "table3", InAll: true, render: static((*Runner).Table3)},
	{Name: "extras", Grid: &Grid{Extras: true}, render: one((*Runner).Extras)},
	{Name: "faults", Grid: &Grid{Faults: true}, render: one((*Runner).FaultSweep)},
	{Name: "quality", Grid: &Grid{Quality: true}, render: two((*Runner).QualitySweep)},
}

// ExperimentByName returns the entry of Experiments called name.
func ExperimentByName(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Render returns the named experiment's tables. Simulations missing from
// the caches are computed serially on the calling goroutine; Prewarm with
// GridFor(name) first to fan them out over the engine.
func (r *Runner) Render(name string) ([]*Table, error) {
	e, ok := ExperimentByName(name)
	if !ok {
		return nil, fmt.Errorf("sweep: experiment %q unknown", name)
	}
	return e.render(r)
}

// one, two, three and static adapt the table builders' result shapes to
// the list's renderer.
func one(build func(*Runner) (*Table, error)) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) {
		t, err := build(r)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

func two(build func(*Runner) (*Table, *Table, error)) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) {
		a, b, err := build(r)
		if err != nil {
			return nil, err
		}
		return []*Table{a, b}, nil
	}
}

func three(build func(*Runner) (*Table, *Table, *Table, error)) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) {
		a, b, c, err := build(r)
		if err != nil {
			return nil, err
		}
		return []*Table{a, b, c}, nil
	}
}

func static(build func(*Runner) *Table) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) { return []*Table{build(r)}, nil }
}
