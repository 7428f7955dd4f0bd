package doppelganger

import (
	"strings"
	"testing"

	"doppelganger/internal/sweep"
)

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 9 {
		t.Fatalf("suite size = %d, want 9", len(names))
	}
	want := "blackscholes canneal ferret fluidanimate inversek2j jmeint jpeg kmeans swaptions"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("suite = %q", got)
	}
}

func TestTable1Configs(t *testing.T) {
	if c := BaselineLLCConfig(); c.SizeBytes != 2<<20 || c.Ways != 16 {
		t.Errorf("baseline config = %+v", c)
	}
	d := DoppelgangerConfig()
	if d.TagEntries != 16<<10 || d.DataEntries != 4<<10 || d.MapSpec.M != 14 || d.Unified {
		t.Errorf("doppelganger config = %+v", d)
	}
	u := UniDoppelgangerConfig()
	if u.TagEntries != 32<<10 || u.DataEntries != 16<<10 || !u.Unified {
		t.Errorf("unidoppelganger config = %+v", u)
	}
}

func TestRunBenchmarkBaselineIsExact(t *testing.T) {
	res, err := RunBenchmark("blackscholes", Baseline, RunOptions{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 {
		t.Errorf("baseline error = %v", res.Error)
	}
	if len(res.Output) == 0 {
		t.Error("no output")
	}
}

func TestRunBenchmarkSplit(t *testing.T) {
	res, err := RunBenchmark("jpeg", SplitDoppelganger, RunOptions{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error < 0 || res.Error > 1 {
		t.Errorf("error = %v", res.Error)
	}
	if res.LLCTags == 0 || res.LLCDataBlocks == 0 {
		t.Errorf("occupancy = %d/%d", res.LLCTags, res.LLCDataBlocks)
	}
	if res.LLCTags < res.LLCDataBlocks {
		t.Errorf("more data blocks (%d) than tags (%d)", res.LLCDataBlocks, res.LLCTags)
	}
}

func TestRunBenchmarkUnknownName(t *testing.T) {
	if _, err := RunBenchmark("nope", Baseline, RunOptions{Scale: 0.05}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestHardwareFacade(t *testing.T) {
	base := BaselineHardware()
	split := SplitHardware(14, 0.25)
	if red := base.AreaMM2() / split.AreaMM2(); red < 1.4 || red > 1.7 {
		t.Errorf("area reduction = %.2f, paper 1.55", red)
	}
	uni := UnifiedHardware(14, 0.25)
	if red := base.AreaMM2() / uni.AreaMM2(); red < 2.5 || red > 3.5 {
		t.Errorf("uni area reduction = %.2f, paper 3.15", red)
	}
}

func TestEvaluationSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	r := sweep.NewRunner(0.05)
	r.Only = []string{"inversek2j"}
	render := func(name string) *sweep.Table {
		ts, err := r.Render(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts) != 1 {
			t.Fatalf("%s rendered %d tables", name, len(ts))
		}
		return ts[0]
	}
	t2 := render("table2")
	if len(t2.Rows) != 1 {
		t.Fatalf("rows = %d", len(t2.Rows))
	}
	if !strings.Contains(t2.Rows[0][1], "%") {
		t.Errorf("footprint cell = %q", t2.Rows[0][1])
	}
	f7 := render("fig7")
	if len(f7.Columns) != 4 {
		t.Errorf("fig7 columns = %v", f7.Columns)
	}
	out := f7.Format()
	if !strings.Contains(out, "inversek2j") || !strings.Contains(out, "average") {
		t.Errorf("fig7 format:\n%s", out)
	}
}

func TestRunTimingFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	tc, err := RunTiming("inversek2j", SplitDoppelganger, RunOptions{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if tc.BaselineCycles == 0 || tc.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	if tc.NormalizedRuntime < 0.8 || tc.NormalizedRuntime > 2 {
		t.Errorf("normalized runtime = %v", tc.NormalizedRuntime)
	}
	if tc.NormalizedTraffic <= 0 {
		t.Errorf("traffic = %v", tc.NormalizedTraffic)
	}
}

func TestRunMultiprogramFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	res, err := RunMultiprogram([]string{"jpeg", "swaptions"}, UniDoppelganger, RunOptions{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) == 0 {
		t.Fatal("no output")
	}
	if res.Error < 0 || res.Error > 1 {
		t.Errorf("error = %v", res.Error)
	}
	if _, err := RunMultiprogram([]string{"nope"}, Baseline, RunOptions{Scale: 0.05}); err == nil {
		t.Error("unknown program accepted")
	}
}
