package main

import "doppelganger/internal/flagcheck"

// parseRates parses a comma-separated -fault-rate list (see
// flagcheck.Rates: finite probabilities in [0,1], NaN rejected explicitly).
func parseRates(s string) ([]float64, error) {
	return flagcheck.Rates("-fault-rate", s)
}

// sweepOptions are the numeric flags validateOptions checks. The *Set fields
// report whether the user supplied the flag explicitly (via flag.Visit), so
// sentinel defaults (-workers 0 = one per CPU) stay legal while explicitly
// requested nonsense is rejected with an actionable message.
type sweepOptions struct {
	Scale         float64
	Workers       int
	WorkersSet    bool
	Retries       int
	QualityBudget float64
	CanaryRate    float64
	TraceDir      string
	TraceCapture  bool
	TraceReplay   bool
	TraceVerify   string
}

// validateOptions rejects flag combinations that would otherwise fail
// obscurely mid-sweep (or worse, silently misbehave). The checks themselves
// live in internal/flagcheck, shared with doppelsim and sweepd.
func validateOptions(o sweepOptions) error {
	return flagcheck.First(
		flagcheck.PositiveScale("-scale", o.Scale),
		flagcheck.Workers("-workers", o.WorkersSet, o.Workers),
		flagcheck.NonNegative("-retries", o.Retries),
		flagcheck.PositiveFraction("-quality-budget", "e.g. 0.05", o.QualityBudget),
		flagcheck.Probability("-canary-rate", o.CanaryRate),
		flagcheck.TraceFlags(o.TraceDir, o.TraceCapture, o.TraceReplay),
		flagcheck.TraceVerify("-trace-verify", o.TraceVerify),
	)
}
