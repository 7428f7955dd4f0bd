package main

import (
	"fmt"
	"strings"

	"doppelganger/internal/flagcheck"
	"doppelganger/internal/sweep"
)

// parseRates parses a comma-separated -fault-rate list (see
// flagcheck.Rates: finite probabilities in [0,1], NaN rejected explicitly).
func parseRates(s string) ([]float64, error) {
	return flagcheck.Rates("-fault-rate", s)
}

// sweepOptions are the flags validateOptions checks. The *Set fields
// report whether the user supplied the flag explicitly (via flag.Visit), so
// sentinel defaults (-workers 0 = one per CPU) stay legal while explicitly
// requested nonsense is rejected with an actionable message.
type sweepOptions struct {
	Scale         float64
	Workers       int
	WorkersSet    bool
	QualityBudget float64
	CanaryRate    float64
	TraceDir      string
	TraceReplay   bool
	TraceVerify   string
	Format        string
}

// validateOptions rejects flag combinations that would otherwise fail
// obscurely mid-sweep (or worse, silently misbehave). The checks themselves
// live in internal/flagcheck, shared with doppelsim and sweepd.
func validateOptions(o sweepOptions) error {
	return flagcheck.First(
		flagcheck.PositiveScale("-scale", o.Scale),
		flagcheck.Workers("-workers", o.WorkersSet, o.Workers),
		flagcheck.PositiveFraction("-quality-budget", "e.g. 0.05", o.QualityBudget),
		flagcheck.Probability("-canary-rate", o.CanaryRate),
		flagcheck.TraceFlags(o.TraceDir, o.TraceReplay),
		flagcheck.TraceVerify("-trace-verify", o.TraceVerify),
		checkFormat(o.Format),
	)
}

// checkFormat rejects a -format that formats cannot render.
func checkFormat(v string) error {
	if _, ok := formats[v]; !ok {
		return fmt.Errorf("-format must be text, csv, json or chart, got %q", v)
	}
	return nil
}

// selectExperiments resolves the command line's experiment names against
// sweep.Experiments, returning the selection in list order. "all" selects
// every entry marked InAll, other names match case-insensitively, a
// repeated name renders once, and no names means "all". An unknown name —
// a flag placed after the names included, since flag parsing stops at the
// first name — is an error naming it and the known set.
func selectExperiments(args []string) ([]sweep.Experiment, error) {
	if len(args) == 0 {
		args = []string{"all"}
	}
	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, e := range sweep.Experiments {
				if e.InAll {
					want[e.Name] = true
				}
			}
			continue
		}
		name := strings.ToLower(a)
		if _, ok := sweep.ExperimentByName(name); !ok {
			var known []string
			for _, e := range sweep.Experiments {
				known = append(known, e.Name)
			}
			return nil, fmt.Errorf("unknown experiment %q (known: %s, all; flags go before the names)", a, strings.Join(known, ", "))
		}
		want[name] = true
	}
	var selected []sweep.Experiment
	for _, e := range sweep.Experiments {
		if want[e.Name] {
			selected = append(selected, e)
		}
	}
	return selected, nil
}
