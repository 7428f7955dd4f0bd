package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseRates(t *testing.T) {
	good, err := parseRates("1e-6, 1e-4,0.5")
	if err != nil || len(good) != 3 || good[0] != 1e-6 || good[2] != 0.5 {
		t.Fatalf("parseRates = %v, %v", good, err)
	}
	for _, s := range []string{"", "abc", "-1e-4", "1.5", "NaN", "1e-4,,1e-6", "1e-4,bogus"} {
		if _, err := parseRates(s); err == nil {
			t.Errorf("parseRates(%q) accepted", s)
		} else if !strings.Contains(err.Error(), "-fault-rate") {
			t.Errorf("parseRates(%q) error does not name the flag: %v", s, err)
		}
	}
}

func TestValidateOptions(t *testing.T) {
	ok := sweepOptions{Scale: 1, QualityBudget: 0.05, CanaryRate: 0.05, Format: "text"}
	if err := validateOptions(ok); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	// The -workers sentinel: 0 is legal as a default (one per CPU) but not
	// when asked for explicitly.
	if err := validateOptions(ok); err != nil {
		t.Errorf("default workers 0 rejected: %v", err)
	}
	bad := []struct {
		name string
		o    sweepOptions
		flag string
	}{
		{"zero scale", sweepOptions{QualityBudget: 0.05}, "-scale"},
		{"NaN scale", sweepOptions{Scale: math.NaN(), QualityBudget: 0.05}, "-scale"},
		{"explicit zero workers", sweepOptions{Scale: 1, Workers: 0, WorkersSet: true, QualityBudget: 0.05}, "-workers"},
		{"negative workers", sweepOptions{Scale: 1, Workers: -2, WorkersSet: true, QualityBudget: 0.05}, "-workers"},
		{"zero budget", sweepOptions{Scale: 1}, "-quality-budget"},
		{"infinite budget", sweepOptions{Scale: 1, QualityBudget: math.Inf(1)}, "-quality-budget"},
		{"NaN budget", sweepOptions{Scale: 1, QualityBudget: math.NaN()}, "-quality-budget"},
		{"canary above one", sweepOptions{Scale: 1, QualityBudget: 0.05, CanaryRate: 1.5}, "-canary-rate"},
		{"negative canary", sweepOptions{Scale: 1, QualityBudget: 0.05, CanaryRate: -0.1}, "-canary-rate"},
		{"bad trace verify", sweepOptions{Scale: 1, QualityBudget: 0.05, TraceVerify: "paranoid"}, "-trace-verify"},
		{"misspelt format", sweepOptions{Scale: 1, QualityBudget: 0.05, Format: "jsn"}, "-format"},
		{"empty format", sweepOptions{Scale: 1, QualityBudget: 0.05}, "-format"},
	}
	for _, tc := range bad {
		err := validateOptions(tc.o)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error does not name %s: %v", tc.name, tc.flag, err)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	paper := "table2 fig2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 table3"
	good := []struct {
		args []string
		want string
	}{
		{nil, paper},
		{[]string{"all"}, paper},
		{[]string{"quality", "all", "extras"}, paper + " extras quality"},
		{[]string{"FIG9", "fig9", "Table2"}, "table2 fig9"},
		{[]string{"faults", "table3"}, "table3 faults"},
	}
	for _, tc := range good {
		sel, err := selectExperiments(tc.args)
		if err != nil {
			t.Errorf("%q rejected: %v", tc.args, err)
			continue
		}
		var names []string
		for _, e := range sel {
			names = append(names, e.Name)
		}
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("%q selected %q, want %q", tc.args, got, tc.want)
		}
	}
	// A misspelt name, and flags after the names (flag parsing stops at the
	// first name, so they arrive here), must not be dropped silently.
	bad := []struct {
		args    []string
		offends string
	}{
		{[]string{"table3", "fig1O"}, "fig1O"},
		{[]string{"table3", "-format", "csv"}, "-format"},
		{[]string{"fig9", "-scale", "0.05"}, "-scale"},
		{[]string{"ALL"}, "ALL"},
	}
	for _, tc := range bad {
		_, err := selectExperiments(tc.args)
		if err == nil {
			t.Errorf("%q accepted", tc.args)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", tc.offends)) || !strings.Contains(msg, "table2, fig2") {
			t.Errorf("%q: error does not name %q and the known set: %v", tc.args, tc.offends, err)
		}
	}
}

// TestUsageErrorsExitEarly runs the binary on usage errors (the first three
// were once ignored): each must exit 2 with nothing on stdout, before the
// trace store is opened and so before any simulation runs.
func TestUsageErrorsExitEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	traceDir := filepath.Join(dir, "traces")
	for _, args := range [][]string{
		{"table3", "fig1O"},
		{"table3", "-format", "csv"},
		{"-format", "jsn", "table3"},
		{"-resume", "table3"},
	} {
		out, err := exec.Command(bin, append([]string{"-quiet", "-trace-dir", traceDir}, args...)...).Output()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%q: exit %v, want 2", args, err)
		}
		if len(out) != 0 {
			t.Errorf("%q printed %q", args, out)
		}
		if _, err := os.Stat(traceDir); !os.IsNotExist(err) {
			t.Fatalf("%q opened the trace store", args)
		}
	}
}
