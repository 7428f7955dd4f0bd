package doppelganger

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"doppelganger/internal/sweep"
	"doppelganger/internal/workloads"
)

// TestFacadeTraceRecordReplay runs RunBenchmark (split) and RunTiming twice
// over one trace directory. The first pass records the split and baseline
// captures, the second replays every simulation from them, and both return
// what the same calls return without a trace directory.
func TestFacadeTraceRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	pass := func(traceDir string) (*BenchmarkResult, *TimingComparison, *MetricsRegistry) {
		t.Helper()
		reg := NewMetricsRegistry()
		opt := RunOptions{Scale: 0.02, TraceDir: traceDir, Metrics: reg}
		res, err := RunBenchmark("blackscholes", SplitDoppelganger, opt)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := RunTiming("blackscholes", SplitDoppelganger, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res, tc, reg
	}
	liveRes, liveTC, _ := pass("")
	coldRes, coldTC, cold := pass(dir)
	warmRes, warmTC, warm := pass(dir)

	// Cold: RunBenchmark records the split cell and its baseline reference;
	// RunTiming then replays that baseline. Warm: all three replay.
	for _, c := range []struct {
		name             string
		reg              *MetricsRegistry
		records, replays uint64
	}{{"cold", cold, 2, 1}, {"warm", warm, 0, 3}} {
		if got := c.reg.CounterValue("trace.records"); got != c.records {
			t.Errorf("%s: trace.records = %d, want %d", c.name, got, c.records)
		}
		if got := c.reg.CounterValue("trace.replays"); got != c.replays {
			t.Errorf("%s: trace.replays = %d, want %d", c.name, got, c.replays)
		}
	}
	for _, res := range []*BenchmarkResult{coldRes, warmRes} {
		if !reflect.DeepEqual(res, liveRes) {
			t.Errorf("RunBenchmark over a trace directory = %+v, live %+v", res, liveRes)
		}
	}
	for _, tc := range []*TimingComparison{coldTC, warmTC} {
		if *tc != *liveTC {
			t.Errorf("RunTiming over a trace directory = %+v, live %+v", tc, liveTC)
		}
	}
}

// TestFacadeTraceReplayRequiresCapture: with TraceReplay, a run with no
// capture to replay fails instead of executing kernels, and records
// nothing.
func TestFacadeTraceReplayRequiresCapture(t *testing.T) {
	dir := t.TempDir()
	opt := RunOptions{Scale: 0.02, TraceDir: dir, TraceReplay: true}
	if _, err := RunBenchmark("blackscholes", SplitDoppelganger, opt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("RunBenchmark over an empty directory: err %v, want a missing-capture error", err)
	}
	if _, err := RunTiming("blackscholes", SplitDoppelganger, opt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("RunTiming over an empty directory: err %v, want a missing-capture error", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("trace directory holds %d entries (%v), want none", len(ents), err)
	}
}

// TestFacadeCaptureMatchesSweep: the facade and a sweep Runner record the
// same cell to the same file name with the same bytes, so doppelsim and
// experiments share one trace directory.
func TestFacadeCaptureMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	facadeDir, sweepDir := t.TempDir(), t.TempDir()
	if _, err := RunBenchmark("blackscholes", SplitDoppelganger, RunOptions{Scale: 0.02, TraceDir: facadeDir}); err != nil {
		t.Fatal(err)
	}
	r := sweep.NewRunner(0.02)
	r.TraceDir = sweepDir
	if _, err := r.SplitError("blackscholes", 14, 0.25); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"base/blackscholes", "split/blackscholes/14/0.25"} {
		ident := workloads.CaptureIdent(key, 0.02, 4, "")
		facade, err := os.ReadFile(workloads.CapturePath(facadeDir, ident))
		if err != nil {
			t.Fatal(err)
		}
		swept, err := os.ReadFile(workloads.CapturePath(sweepDir, ident))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(facade, swept) {
			t.Errorf("%s: facade capture (%d bytes) differs from the sweep's (%d bytes)", key, len(facade), len(swept))
		}
	}
}
