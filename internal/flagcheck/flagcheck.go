// Package flagcheck holds the flag-validation primitives the binaries
// (experiments, doppelsim, sweepd) share: every check rejects values that
// would otherwise fail obscurely mid-run — or worse, silently simulate
// something other than what was asked for — with a message that names the
// offending flag and says what a legal value looks like.
//
// The helpers take the flag's spelling as their first argument so each
// binary's error names its own flags; the per-binary validate.go files are
// thin compositions of these checks over their option structs.
package flagcheck

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// PositiveScale rejects non-positive or NaN workload scales.
func PositiveScale(flag string, v float64) error {
	if math.IsNaN(v) || v <= 0 {
		return fmt.Errorf("%s must be a positive number, got %v", flag, v)
	}
	return nil
}

// Workers enforces the -workers sentinel convention: 0 is legal as an unset
// default (one worker per CPU) but an explicitly supplied value must be at
// least 1.
func Workers(flag string, set bool, v int) error {
	if set && v < 1 {
		return fmt.Errorf("%s must be at least 1 (omit the flag for one worker per CPU), got %d", flag, v)
	}
	return nil
}

// AtLeast rejects integers below min.
func AtLeast(flag string, v, min int) error {
	if v < min {
		return fmt.Errorf("%s must be at least %d, got %d", flag, min, v)
	}
	return nil
}

// IntRange rejects integers outside [lo, hi]; unit labels the message
// ("bits", "shards").
func IntRange(flag string, v, lo, hi int, unit string) error {
	if v < lo || v > hi {
		return fmt.Errorf("%s must be between %d and %d %s, got %d", flag, lo, hi, unit, v)
	}
	return nil
}

// Probability rejects values outside [0,1] (NaN included — ParseFloat
// happily accepts it).
func Probability(flag string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("%s must be a probability in [0,1], got %v", flag, v)
	}
	return nil
}

// Fraction rejects values outside [0,1]; hint explains the flag's zero
// convention (e.g. "0 = the organization's default").
func Fraction(flag, hint string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("%s must be a fraction in [0,1] (%s), got %v", flag, hint, v)
	}
	return nil
}

// PositiveFraction rejects non-positive, NaN or infinite error fractions;
// hint suggests a legal spelling (e.g. "e.g. 0.05").
func PositiveFraction(flag, hint string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return fmt.Errorf("%s must be a positive finite error fraction (%s), got %v", flag, hint, v)
	}
	return nil
}

// PositiveDuration rejects non-positive durations for flags whose zero is
// not a sentinel.
func PositiveDuration(flag string, d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("%s must be a positive duration, got %v", flag, d)
	}
	return nil
}

// TraceFlags checks the trace-cache flag triple shared by every binary:
// capture/replay require a directory and are mutually exclusive.
func TraceFlags(dir string, capture, replay bool) error {
	if (capture || replay) && dir == "" {
		return fmt.Errorf("-trace-capture and -trace-replay require -trace-dir")
	}
	if capture && replay {
		return fmt.Errorf("-trace-capture and -trace-replay are mutually exclusive (capture re-records, replay forbids recording)")
	}
	return nil
}

// TraceVerify rejects unknown -trace-verify spellings; the legal modes are
// off (temp sweep only), open (preamble + whole-file digest) and full
// (complete decode). The empty string is the unset struct zero and stays
// legal — binaries default the flag itself to "open".
func TraceVerify(flag, v string) error {
	switch v {
	case "", "off", "open", "full":
		return nil
	}
	return fmt.Errorf("%s must be off, open or full, got %q", flag, v)
}

// Rates parses a comma-separated probability list (the -fault-rate flag).
// Every entry must be a finite probability in [0,1]; NaN is rejected
// explicitly.
func Rates(flag, s string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || math.IsNaN(r) || r < 0 || r > 1 {
			return nil, fmt.Errorf("bad %s entry %q (want a probability in [0,1])", flag, strings.TrimSpace(f))
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// First returns the first non-nil error of a check sequence — the shape
// every validateOptions composition wants.
func First(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
