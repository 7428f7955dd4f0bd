package sweep

import (
	"context"

	"doppelganger/internal/approx"
	"doppelganger/internal/core"
)

// extraConfig is one extension configuration the Extras table evaluates;
// kind is the custom cell kind that measures it.
type extraConfig struct {
	tag  string
	cfg  core.Config
	kind string
}

// extrasConfigs returns the extension configurations at the base geometry
// (14-bit map, 1/4 data array); shared by Extras, the engine grid and the
// custom cells' builder.
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
		{tag: "minmax", cfg: minmax, kind: "custom-error"},
		{tag: "avgonly", cfg: avgonly, kind: "custom-error"},
		{tag: "aware", cfg: aware, kind: "custom-timing"},
		{tag: "compressed", cfg: compressed, kind: "custom-timing"},
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

	ctx := context.Background()
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
		minmaxErr, err := r.cellError(ctx, Cell{Kind: "custom-error", Bench: name, Custom: "minmax"})
		if err != nil {
			return nil, err
		}
		avgonlyErr, err := r.cellError(ctx, Cell{Kind: "custom-error", Bench: name, Custom: "avgonly"})
		if err != nil {
			return nil, err
		}
		splitTime, err := r.SplitTiming(name, BaseMapBits, BaseDataFrac)
		if err != nil {
			return nil, err
		}
		awareTime, err := r.cellTiming(ctx, Cell{Kind: "custom-timing", Bench: name, Custom: "aware"})
		if err != nil {
			return nil, err
		}
		compTime, err := r.cellTiming(ctx, Cell{Kind: "custom-timing", Bench: name, Custom: "compressed"})
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
