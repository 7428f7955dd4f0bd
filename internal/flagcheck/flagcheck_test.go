package flagcheck

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestScalarChecks(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string // "" = must pass; otherwise a required substring
	}{
		{"scale ok", PositiveScale("-scale", 0.05), ""},
		{"scale zero", PositiveScale("-scale", 0), "-scale"},
		{"scale NaN", PositiveScale("-scale", math.NaN()), "-scale"},
		{"workers unset zero", Workers("-workers", false, 0), ""},
		{"workers explicit zero", Workers("-workers", true, 0), "-workers"},
		{"workers explicit negative", Workers("-workers", true, -2), "-workers"},
		{"atleast ok", AtLeast("-cores", 1, 1), ""},
		{"atleast bad", AtLeast("-cores", 0, 1), "-cores"},
		{"range ok", IntRange("-map", 14, 1, 32, "bits"), ""},
		{"range low", IntRange("-map", 0, 1, 32, "bits"), "-map"},
		{"range high", IntRange("-map", 33, 1, 32, "bits"), "between 1 and 32 bits"},
		{"prob ok", Probability("-canary-rate", 1), ""},
		{"prob high", Probability("-canary-rate", 1.5), "-canary-rate"},
		{"prob NaN", Probability("-canary-rate", math.NaN()), "-canary-rate"},
		{"frac ok", Fraction("-datafrac", "0 = default", 0), ""},
		{"frac bad", Fraction("-datafrac", "0 = default", -0.1), "0 = default"},
		{"posfrac ok", PositiveFraction("-quality-budget", "e.g. 0.05", 0.05), ""},
		{"posfrac zero", PositiveFraction("-quality-budget", "e.g. 0.05", 0), "-quality-budget"},
		{"posfrac inf", PositiveFraction("-quality-budget", "e.g. 0.05", math.Inf(1)), "e.g. 0.05"},
		{"duration ok", PositiveDuration("-hedge-after", time.Second), ""},
		{"duration zero", PositiveDuration("-hedge-after", 0), "-hedge-after"},
		{"trace ok", TraceFlags("dir", true, false), ""},
		{"trace missing dir", TraceFlags("", true, false), "-trace-dir"},
		{"trace both", TraceFlags("dir", true, true), "mutually exclusive"},
	}
	for _, tc := range cases {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, tc.err)
		case tc.want != "" && tc.err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(tc.err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, tc.err, tc.want)
		}
	}
}

func TestRates(t *testing.T) {
	good, err := Rates("-fault-rate", "1e-6, 1e-4,0.5")
	if err != nil || len(good) != 3 || good[0] != 1e-6 || good[2] != 0.5 {
		t.Fatalf("Rates = %v, %v", good, err)
	}
	for _, s := range []string{"", "abc", "-1e-4", "1.5", "NaN", "1e-4,,1e-6"} {
		if _, err := Rates("-fault-rate", s); err == nil {
			t.Errorf("Rates(%q) accepted", s)
		} else if !strings.Contains(err.Error(), "-fault-rate") {
			t.Errorf("Rates(%q) error does not name the flag: %v", s, err)
		}
	}
}

func TestFirst(t *testing.T) {
	if First(nil, nil) != nil {
		t.Fatal("First(nil, nil) != nil")
	}
	e := AtLeast("-x", 0, 1)
	if First(nil, e, AtLeast("-y", 0, 1)) != e {
		t.Fatal("First did not return the first error")
	}
}
