package main

import (
	"fmt"

	"doppelganger/internal/faults"
	"doppelganger/internal/metrics"
	"doppelganger/internal/quality"
	"doppelganger/internal/server"
	"doppelganger/internal/sweep"
	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
)

// sweepd's defaults for everything a cell's result and capture identity
// depend on: fault seed 1 with bit flips, quality seed 1, a 0.05 error
// budget and a 0.05 canary rate.
const (
	faultSeed     = 1
	qualitySeed   = 1
	qualityBudget = 0.05
	canaryRate    = 0.05
)

// sweepdIdents is a runner configured as sweepd's shards are, used only to
// name the capture each cell replays.
func sweepdIdents() *sweep.Runner {
	r := sweep.NewRunner(scale)
	r.FaultSeed = faultSeed
	r.FaultModel = faults.BitFlip
	r.QualitySeed = qualitySeed
	r.QualityBudget = qualityBudget
	r.CanaryRate = canaryRate
	return r
}

// faultBuilders are the organizations fault and quality cells run on.
var faultBuilders = map[string]workloads.LLCBuilder{
	"baseline": workloads.BaselineBuilder(2<<20, 16),
	"doppel":   workloads.SplitBuilder(sweep.BaseMapBits, sweep.BaseDataFrac),
	"uni":      workloads.UnifiedBuilder(sweep.BaseMapBits, 0.5),
}

// openStore opens the warm directory as sweepd does before it reports
// ready: lock it and scrub it, verifying every capture's digest.
func (g *grid) openStore() (*trace.Store, error) {
	var st *trace.Store
	err := g.sp.in("trace.scrub", func() error {
		var err error
		st, err = trace.OpenStore(g.fs, g.dir, trace.VerifyOpen)
		return err
	})
	return st, err
}

// load reads one cell's capture from the warm directory as sweepd's shards
// load every capture: a digest probe of the file's preamble, then a hit in
// the shared decoded-capture cache or a full decode that fills it. Like the
// Runner, it counts one trace.replays per capture served.
func (g *grid) load(id string) (*trace.Capture, error) {
	path := workloads.CapturePath(g.dir, id)
	var c *trace.Capture
	before := g.fs.bytesRead
	err := g.sp.in("trace.decode", func() error {
		d, err := trace.FileDigestFS(g.fs, path)
		if err != nil {
			return err
		}
		if c = g.decoded.Get(d); c != nil && c.Header.ConfigKey == id {
			return nil
		}
		if c, err = trace.ReadCaptureFileFS(g.fs, path); err != nil {
			return err
		}
		g.decoded.Put(c.FileCRC, c)
		return nil
	})
	g.decodeBytes += g.fs.bytesRead - before
	if err != nil {
		return nil, fmt.Errorf("capture %s: %w", id, err)
	}
	if c.Header.ConfigKey != id || c.Header.Cores != cores {
		return nil, fmt.Errorf("capture %s: recorded as %q with %d cores", id, c.Header.ConfigKey, c.Header.Cores)
	}
	g.totals.Counter("trace.replays").Add(1)
	return c, nil
}

// baseOutput is the precise output error cells score against: the full
// baseline's when it has been replayed, else the baseline capture's.
func (g *grid) baseOutput(name string) ([]float64, error) {
	if b, ok := g.bases[name]; ok {
		return b.Output, nil
	}
	if out, ok := g.baseOuts[name]; ok {
		return out, nil
	}
	c, err := g.load(ident("base/" + name))
	if err != nil {
		return nil, err
	}
	g.baseOuts[name] = c.Output
	return c.Output, nil
}

// serve drives the cells a serve-warm pass computed, in the order the pass
// first submitted them, through the layers' public functions as sweepd's
// shard runners serve them over a warm directory: after the start-up scrub,
// every capture is loaded through the shared decoded-capture cache;
// output-only cells score the capture's output; guarded cells replay it
// through a hierarchy with the cell's fault injector and quality guard;
// timing cells replay the baseline once per benchmark, then run timesim.
func (g *grid) serve(cells []server.Cell) error {
	g.sp.begin("sweep.grid")
	defer g.sp.end()
	st, err := g.openStore()
	if err != nil {
		return err
	}
	defer st.Close()
	ids := sweepdIdents()
	for _, c := range cells {
		if err := g.serveCell(ids, c); err != nil {
			return fmt.Errorf("%s: %w", c.Key(), err)
		}
		g.cells++
	}
	return nil
}

func (g *grid) serveCell(ids *sweep.Runner, c server.Cell) error {
	f, err := workloads.ByName(c.Bench)
	if err != nil {
		return err
	}
	id, _ := ids.CellCaptureIdent(c.Kind, c.Bench, c.Org, c.M, c.Frac, c.Rate)
	switch c.Kind {
	case "split-error", "uni-error", "fault-error":
		base, err := g.baseOutput(c.Bench)
		if err != nil {
			return err
		}
		capture, err := g.load(id)
		if err != nil {
			return err
		}
		bench := f.New(scale)
		g.sp.begin("sweep.score")
		bench.Error(base, capture.Output)
		g.sp.end()
	case "quality-error":
		base, err := g.baseOutput(c.Bench)
		if err != nil {
			return err
		}
		capture, err := g.load(id)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("quality/%s/%s/%g", c.Org, c.Bench, c.Rate)
		inj := faults.New(faults.Config{
			Seed:  faults.Derive(faultSeed, fmt.Sprintf("fault/%s/%s/%g", c.Org, c.Bench, c.Rate)),
			Model: faults.BitFlip,
			Rate:  c.Rate,
		})
		qc, err := quality.New(quality.Config{Seed: faults.Derive(qualitySeed, key), Budget: qualityBudget, CanaryRate: canaryRate})
		if err != nil {
			return err
		}
		child := metrics.NewRegistry()
		inj.AttachMetrics(child)
		qc.AttachMetrics(child)
		var run *workloads.RunResult
		err = g.sp.in("funcsim.replay", func() error {
			run, err = workloads.ReplayFunctionalContext(g.ctx, f.New(scale), capture, faultBuilders[c.Org],
				workloads.RunOptions{Cores: cores, Metrics: child, Faults: inj, Quality: qc})
			return err
		})
		if err != nil {
			return err
		}
		g.replayAccesses += accesses(child)
		g.totals.Merge(child)
		bench := f.New(scale)
		g.sp.begin("sweep.score")
		bench.Error(base, run.Output)
		g.sp.end()
	case "split-timing", "uni-timing", "baseline-timing":
		if _, ok := g.bases[c.Bench]; !ok {
			if err := g.baseline(c.Bench); err != nil {
				return err
			}
		}
		switch c.Kind {
		case "split-timing":
			return g.timing(c.Bench, c.Key(), workloads.SplitBuilder(c.M, c.Frac))
		case "uni-timing":
			return g.timing(c.Bench, c.Key(), workloads.UnifiedBuilder(c.M, c.Frac))
		}
	default:
		return fmt.Errorf("kind %q is not part of the serve stream", c.Kind)
	}
	return nil
}
