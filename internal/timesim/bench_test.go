package timesim_test

import (
	"testing"

	"doppelganger/internal/metrics"
	"doppelganger/internal/timesim"
	"doppelganger/internal/workloads"
)

// benchResult keeps the benchmarked call's result alive.
var benchResult *timesim.Result

// BenchmarkTimesimRun replays canneal's baseline recording through the
// timing model against the split M=14 LLC with a quarter-size data array,
// one of the grid's timing cells. It reports the cost per replayed access,
// which covers the event loop, the hierarchy and the LLC organization; the
// recording is made once, outside the timer. The nil sub-benchmark runs
// with no registry; registry attaches a fresh one per run, as the sweep
// server does for every timing cell, so the two ns/access figures give the
// cost of publishing a run's instruments.
func BenchmarkTimesimRun(b *testing.B) {
	f, err := workloads.ByName("canneal")
	if err != nil {
		b.Fatal(err)
	}
	rec := workloads.RunFunctional(f.New(pinScale), workloads.BaselineBuilder(2<<20, 16),
		workloads.RunOptions{Cores: 4, Record: true})
	llc := workloads.SplitBuilder(14, 0.25)
	for _, bc := range []struct {
		name string
		reg  func() *metrics.Registry
	}{
		{"nil", func() *metrics.Registry { return nil }},
		{"registry", metrics.NewRegistry},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := timesim.DefaultConfig()
				cfg.Cores = 4
				cfg.Metrics = bc.reg()
				benchResult = timesim.Run(rec.Recorder, rec.InitialMem, rec.Annotations, llc, cfg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rec.Recorder.Len()), "ns/access")
		})
	}
}
