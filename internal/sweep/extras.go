package sweep

import (
	"context"
	"fmt"

	"doppelganger/internal/approx"
	"doppelganger/internal/core"
	"doppelganger/internal/timesim"
	"doppelganger/internal/workloads"
)

// extraConfig is one extension configuration the Extras table evaluates;
// timing selects which simulator (and which memo cache) the run uses.
type extraConfig struct {
	tag    string
	cfg    core.Config
	timing bool
}

// extrasConfigs returns the extension configurations at the base geometry
// (14-bit map, 1/4 data array); shared by Extras and the engine grid.
func extrasConfigs() []extraConfig {
	base := SplitConfig(BaseMapBits, BaseDataFrac)
	minmax := base
	minmax.MapSpec.Hash = approx.HashMinMax
	avgonly := base
	avgonly.MapSpec.Hash = approx.HashAvgOnly
	aware := base
	aware.DataPolicy = core.ReplaceTagCountAware
	compressed := base
	compressed.CompressedData = true
	compressed.CompressBudget = 0.5
	return []extraConfig{
		{tag: "minmax", cfg: minmax},
		{tag: "avgonly", cfg: avgonly},
		{tag: "aware", cfg: aware, timing: true},
		{tag: "compressed", cfg: compressed, timing: true},
	}
}

// Extras evaluates this repository's extensions beyond the paper, all at
// the base configuration (14-bit map, 1/4 data array):
//
//   - alternative similarity hashes (§3.7 future work): min+max and
//     average-only versus the paper's average+range, by output error;
//   - the tag-count-aware data replacement policy (§3.5 future work)
//     versus LRU, by normalized runtime;
//   - the BΔI-compressed data array (§5.1's Doppelgänger+BΔI) at half the
//     SRAM bytes, by normalized runtime.
func (r *Runner) Extras() (*Table, error) {
	t := &Table{
		Title: "Extras: extensions beyond the paper (14-bit map, 1/4 data array)",
		Columns: []string{"benchmark",
			"err avg+range", "err min+max", "err avg-only",
			"rt lru", "rt tag-aware", "rt compressed/2"},
		Notes: []string{
			"rt columns are runtime normalized to the baseline 2MB LLC;",
			"compressed/2 stores BdI-compressed payloads in half the data-array bytes.",
		},
	}

	xs := extrasConfigs()
	byTag := map[string]extraConfig{}
	for _, x := range xs {
		byTag[x.tag] = x
	}

	sums := make([]float64, 6)
	for _, name := range r.Benchmarks() {
		a, err := r.Baseline(name)
		if err != nil {
			return nil, err
		}
		splitErr, err := r.SplitError(name, BaseMapBits, BaseDataFrac)
		if err != nil {
			return nil, err
		}
		minmaxErr, err := r.customError(name, byTag["minmax"].cfg, "minmax")
		if err != nil {
			return nil, err
		}
		avgonlyErr, err := r.customError(name, byTag["avgonly"].cfg, "avgonly")
		if err != nil {
			return nil, err
		}
		splitTime, err := r.SplitTiming(name, BaseMapBits, BaseDataFrac)
		if err != nil {
			return nil, err
		}
		awareTime, err := r.customTiming(name, byTag["aware"].cfg, "aware")
		if err != nil {
			return nil, err
		}
		compTime, err := r.customTiming(name, byTag["compressed"].cfg, "compressed")
		if err != nil {
			return nil, err
		}
		vals := []float64{
			splitErr, minmaxErr, avgonlyErr,
			float64(splitTime.Cycles) / float64(a.timing.Cycles),
			float64(awareTime.Cycles) / float64(a.timing.Cycles),
			float64(compTime.Cycles) / float64(a.timing.Cycles),
		}
		for i, v := range vals {
			sums[i] += v
		}
		t.AddRow(name, pct(vals[0]), pct(vals[1]), pct(vals[2]),
			norm(vals[3]), norm(vals[4]), norm(vals[5]))
	}
	n := float64(len(r.Benchmarks()))
	t.AddRow("average", pct(sums[0]/n), pct(sums[1]/n), pct(sums[2]/n),
		norm(sums[3]/n), norm(sums[4]/n), norm(sums[5]/n))
	return t, nil
}

// customError runs the split organization with an explicit Doppelgänger
// configuration and measures output error.
func (r *Runner) customError(name string, cfg core.Config, tag string) (float64, error) {
	return r.customErrorContext(context.Background(), name, cfg, tag)
}

func (r *Runner) customErrorContext(ctx context.Context, name string, cfg core.Config, tag string) (float64, error) {
	key := fmt.Sprintf("custom/%s/%s", name, tag)
	return r.errDo(key, func() (float64, error) {
		a, err := r.BaselineContext(ctx, name)
		if err != nil {
			return 0, err
		}
		r.logf("[%s] custom functional run (%s)", name, tag)
		child := r.instrument()
		run, err := r.funcRun(ctx, funcReq{
			key:  key,
			name: name,
			llcb: workloads.CustomSplitBuilder(cfg),
			opt:  workloads.RunOptions{Cores: r.Cores, Metrics: child},
			fast: true,
		})
		if err != nil {
			return 0, err
		}
		r.collect(key+"/func", child)
		return a.bench.Error(a.output, run.Output), nil
	})
}

// customTiming replays the benchmark's traces against the split
// organization with an explicit Doppelgänger configuration.
func (r *Runner) customTiming(name string, cfg core.Config, tag string) (*timesim.Result, error) {
	return r.customTimingContext(context.Background(), name, cfg, tag)
}

func (r *Runner) customTimingContext(ctx context.Context, name string, cfg core.Config, tag string) (*timesim.Result, error) {
	key := fmt.Sprintf("custom/%s/%s", name, tag)
	return r.timeDo(key, func() (*timesim.Result, error) {
		a, err := r.BaselineContext(ctx, name)
		if err != nil {
			return nil, err
		}
		r.logf("[%s] custom timing run (%s)", name, tag)
		child := r.instrument()
		res, err := a.replay(ctx, workloads.CustomSplitBuilder(cfg), r.timesimConfigFor(key+"/timing", child))
		if err != nil {
			return nil, err
		}
		r.collect(key+"/timing", child)
		return res, nil
	})
}
