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
	Scale          float64
	Cores          int
	Shards         int
	ShardWorkers   int
	QueueDepth     int
	MaxQueue       int
	AdmitRate      float64
	AdmitBurst     float64
	JobTimeout     time.Duration
	RetryBackoff   time.Duration
	HedgeAfter     time.Duration
	DrainTimeout   time.Duration
	Retries        int
	QualityBudget  float64
	CanaryRate     float64
	TraceDir       string
	TraceCapture   bool
	TraceReplay    bool
	TraceVerify    string
	DecodedCacheMB int
	Resume         bool
	StatePath      string
	Checkpoint     string
}

func validateOptions(o sweepdOptions) error {
	if err := flagcheck.First(
		flagcheck.PositiveScale("-scale", o.Scale),
		flagcheck.AtLeast("-cores", o.Cores, 1),
		flagcheck.AtLeast("-shards", o.Shards, 1),
		flagcheck.AtLeast("-shard-workers", o.ShardWorkers, 1),
		flagcheck.AtLeast("-queue-depth", o.QueueDepth, 1),
		flagcheck.NonNegative("-max-queue", o.MaxQueue),
		flagcheck.PositiveScale("-admit-rate", o.AdmitRate),
		flagcheck.PositiveScale("-admit-burst", o.AdmitBurst),
		flagcheck.PositiveDuration("-job-timeout", o.JobTimeout),
		flagcheck.PositiveDuration("-retry-backoff", o.RetryBackoff),
		flagcheck.PositiveDuration("-drain-timeout", o.DrainTimeout),
		flagcheck.NonNegative("-retries", o.Retries),
		flagcheck.PositiveFraction("-quality-budget", "e.g. 0.05", o.QualityBudget),
		flagcheck.Probability("-canary-rate", o.CanaryRate),
		flagcheck.TraceFlags(o.TraceDir, o.TraceCapture, o.TraceReplay),
		flagcheck.TraceVerify("-trace-verify", o.TraceVerify),
		flagcheck.NonNegative("-decoded-cache-mb", o.DecodedCacheMB),
	); err != nil {
		return err
	}
	if o.HedgeAfter < 0 {
		return errors.New("-hedge-after must be non-negative (0 disables hedging)")
	}
	if o.Resume && o.StatePath == "" && o.Checkpoint == "" {
		return errResumeNeedsFile
	}
	return nil
}
