package main

import (
	"errors"
	"time"

	"doppelganger/internal/flagcheck"
)

var errResumeNeedsFile = errors.New("-resume requires -state and/or -checkpoint (nothing to resume from)")

// sweepdOptions carries the flag values validateOptions checks before the
// server starts: every rejection here is a config that would otherwise fail
// obscurely mid-serve (or silently simulate the wrong thing).
type sweepdOptions struct {
	Scale         float64
	Cores         int
	MaxQueue      int
	AdmitRate     float64
	AdmitBurst    float64
	JobTimeout    time.Duration
	DrainTimeout  time.Duration
	QualityBudget float64
	CanaryRate    float64
	TraceDir      string
	TraceCapture  bool
	TraceReplay   bool
	TraceVerify   string
	Resume        bool
	StatePath     string
	Checkpoint    string
}

func validateOptions(o sweepdOptions) error {
	if err := flagcheck.First(
		flagcheck.PositiveScale("-scale", o.Scale),
		flagcheck.AtLeast("-cores", o.Cores, 1),
		flagcheck.NonNegative("-max-queue", o.MaxQueue),
		flagcheck.PositiveScale("-admit-rate", o.AdmitRate),
		flagcheck.PositiveScale("-admit-burst", o.AdmitBurst),
		flagcheck.PositiveDuration("-job-timeout", o.JobTimeout),
		flagcheck.PositiveDuration("-drain-timeout", o.DrainTimeout),
		flagcheck.PositiveFraction("-quality-budget", "e.g. 0.05", o.QualityBudget),
		flagcheck.Probability("-canary-rate", o.CanaryRate),
		flagcheck.TraceFlags(o.TraceDir, o.TraceCapture, o.TraceReplay),
		flagcheck.TraceVerify("-trace-verify", o.TraceVerify),
	); err != nil {
		return err
	}
	if o.Resume && o.StatePath == "" && o.Checkpoint == "" {
		return errResumeNeedsFile
	}
	return nil
}
