package main

import (
	"math"
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
	ok := sweepOptions{Scale: 1, Retries: 2, QualityBudget: 0.05, CanaryRate: 0.05}
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
		{"negative retries", sweepOptions{Scale: 1, Retries: -1, QualityBudget: 0.05}, "-retries"},
		{"zero budget", sweepOptions{Scale: 1}, "-quality-budget"},
		{"infinite budget", sweepOptions{Scale: 1, QualityBudget: math.Inf(1)}, "-quality-budget"},
		{"NaN budget", sweepOptions{Scale: 1, QualityBudget: math.NaN()}, "-quality-budget"},
		{"canary above one", sweepOptions{Scale: 1, QualityBudget: 0.05, CanaryRate: 1.5}, "-canary-rate"},
		{"negative canary", sweepOptions{Scale: 1, QualityBudget: 0.05, CanaryRate: -0.1}, "-canary-rate"},
		{"bad trace verify", sweepOptions{Scale: 1, QualityBudget: 0.05, TraceVerify: "paranoid"}, "-trace-verify"},
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
