package sweep

import (
	"context"
	"fmt"
	"math"

	"doppelganger/internal/quality"
	"doppelganger/internal/timesim"
)

// The quality sweep's default guard knobs: a 5% output-error budget (the
// loose end of the paper's acceptable-quality discussion) and a 5% canary
// sampling rate.
const (
	DefaultQualityBudget = 0.05
	DefaultCanaryRate    = 0.05
)

// GuardedOrgs are the organizations the quality guard can protect: the two
// Doppelgänger variants. The precise baseline never approximates, so its
// guard-on and guard-off runs would be the same simulation.
var GuardedOrgs = []string{"doppel", "uni"}

// QualityOutcome is everything one guarded functional run reports: the true
// output error (paper methodology, against the fault-free precise baseline),
// the guard's own online estimate, and the breaker's full history. Floats
// are carried as raw bits so checkpointed outcomes resume bit-identically.
type QualityOutcome struct {
	TrueErrorBits uint64               `json:"true_error_bits"`
	EstimateBits  uint64               `json:"estimate_bits"`
	FinalState    quality.State        `json:"final_state"`
	Trips         uint64               `json:"trips"`
	Reentries     uint64               `json:"reentries"`
	Canaries      uint64               `json:"canaries"`
	CanaryDraws   uint64               `json:"canary_draws"`
	ApproxOps     uint64               `json:"approx_ops"`
	Bypassed      uint64               `json:"bypassed"`
	Transitions   []quality.Transition `json:"transitions,omitempty"`
}

// TrueError is the paper-methodology output error of the guarded run.
func (q *QualityOutcome) TrueError() float64 { return math.Float64frombits(q.TrueErrorBits) }

// Estimate is the guard's final online error estimate.
func (q *QualityOutcome) Estimate() float64 { return math.Float64frombits(q.EstimateBits) }

// CanaryFraction is the canary overhead: the fraction of substitution
// events that paid for a precise fetch and comparison.
func (q *QualityOutcome) CanaryFraction() float64 {
	if q.CanaryDraws == 0 {
		return 0
	}
	return float64(q.Canaries) / float64(q.CanaryDraws)
}

// BypassFraction is the fraction of approximate operations served precisely
// because the breaker was open.
func (q *QualityOutcome) BypassFraction() float64 {
	if q.ApproxOps == 0 {
		return 0
	}
	return float64(q.Bypassed) / float64(q.ApproxOps)
}

// qualityBudget returns the configured error budget.
func (r *Runner) qualityBudget() float64 {
	if r.QualityBudget > 0 {
		return r.QualityBudget
	}
	return DefaultQualityBudget
}

// canaryRate returns the configured closed-state sampling rate.
func (r *Runner) canaryRate() float64 {
	if r.CanaryRate > 0 {
		return r.CanaryRate
	}
	return DefaultCanaryRate
}

// QualityError runs one benchmark on one guarded organization under fault
// injection and reports the guarded outcome. The injector is seeded from
// the SAME key as the unguarded FaultError run, so until the breaker first
// trips both runs see the identical fault stream — the guard-on and
// guard-off columns differ only by the guard's interventions.
func (r *Runner) QualityError(name, org string, rate float64) (*QualityOutcome, error) {
	return r.guardedError(context.Background(), Cell{Kind: "quality-error", Bench: name, Org: org, Rate: rate})
}

// QualityTiming replays one benchmark's traces against a guarded (or, with
// guarded false, merely faulted) organization, for the runtime cost of
// graceful degradation. Both modes derive the injector from the same key,
// so they replay the identical fault stream.
func (r *Runner) QualityTiming(name, org string, rate float64, guarded bool) (*timesim.Result, error) {
	return r.cellTiming(context.Background(), Cell{Kind: "quality-timing", Bench: name, Org: org, Rate: rate, Guarded: guarded})
}

// guardedError is a quality-error cell: the functional-error path under
// the guard, reported with the guard's estimate and breaker history.
//
// It is not a fast cell: the outcome needs the guard's breaker history, so
// a warm cache replays the stream through a fresh hierarchy with the
// identically seeded injector and guard attached. Both draw per LLC
// operation, and replay preserves the exact operation sequence, so the
// guard relives the live run decision for decision.
func (r *Runner) guardedError(ctx context.Context, c Cell) (*QualityOutcome, error) {
	key := c.memoKey()
	q, err := r.qualityCache.Do(key, func() (*QualityOutcome, error) {
		v, qc, err := r.functional(ctx, c)
		if err != nil {
			return nil, err
		}
		s := qc.Stats()
		return &QualityOutcome{
			TrueErrorBits: math.Float64bits(v),
			EstimateBits:  math.Float64bits(qc.Estimate()),
			FinalState:    qc.State(),
			Trips:         s.Trips,
			Reentries:     s.Reentries,
			Canaries:      s.Canaries,
			CanaryDraws:   s.CanaryDraws,
			ApproxOps:     s.ApproxOps,
			Bypassed:      s.Bypassed,
			Transitions:   qc.Transitions(),
		}, nil
	})
	if err == nil && r.Checkpoint != nil {
		r.Checkpoint.SaveQuality(key, q)
	}
	return q, err
}

// QualitySweep renders the quality-guard tables: true output error with the
// guard off and on (plus the guard's own estimate, canary overhead, bypass
// fraction and breaker history) per benchmark x organization x fault rate,
// and normalized runtime with the guard off and on. The unguarded error
// column is the fault sweep's own record, so the two experiments share
// simulations.
func (r *Runner) QualitySweep() (errT, runT *Table, err error) {
	rates := r.faultRates()
	errT = &Table{
		Title: fmt.Sprintf("Quality guard: output error, guard off vs on (budget %g, canary rate %g, seed %d)",
			r.qualityBudget(), r.canaryRate(), r.QualitySeed),
		Columns: []string{"benchmark", "org", "rate", "err off", "err on", "estimate", "canary %", "bypass %", "trips", "state"},
		Notes: []string{
			"err off reproduces the faults experiment; err on runs the same fault stream",
			"with the online guard enabled. estimate is the guard's final EWMA — compare",
			"it to err on to judge canary tracking. The guard detects budget overruns",
			"after a detection latency of O(canaries/alpha) substitutions, so err on can",
			"exceed the budget when corruption outruns sampling within that window.",
		},
	}
	runT = &Table{
		Title:   "Quality guard: normalized runtime, guard off vs on",
		Columns: []string{"benchmark", "org", "rate", "runtime off", "runtime on"},
		Notes: []string{
			"runtime normalized to each benchmark's fault-free baseline replay;",
			"both columns replay the identical fault stream.",
		},
	}
	type avg struct {
		off, on, est float64
		n            int
	}
	errAvg := map[string]*avg{}
	runAvg := map[string]*avg{}
	akey := func(org string, rate float64) string { return fmt.Sprintf("%s@%g", org, rate) }

	for _, name := range r.Benchmarks() {
		for _, org := range FaultOrgs {
			for _, rate := range rates {
				off, err := r.FaultError(name, org, rate)
				if err != nil {
					return nil, nil, err
				}
				ea := errAvg[akey(org, rate)]
				if ea == nil {
					ea = &avg{}
					errAvg[akey(org, rate)] = ea
				}
				ea.off += off
				ea.n++
				if org == "baseline" {
					// The baseline never approximates: the guard has nothing to
					// do, so only the unguarded error is reported.
					errT.AddRow(name, org, fmt.Sprintf("%g", rate), pct(off), "-", "-", "-", "-", "-", "-")
					continue
				}
				q, err := r.QualityError(name, org, rate)
				if err != nil {
					return nil, nil, err
				}
				ea.on += q.TrueError()
				ea.est += q.Estimate()
				errT.AddRow(name, org, fmt.Sprintf("%g", rate),
					pct(off), pct(q.TrueError()), pct(q.Estimate()),
					pct(q.CanaryFraction()), pct(q.BypassFraction()),
					fmt.Sprintf("%d", q.Trips), q.FinalState.String())

				base, err := r.Baseline(name)
				if err != nil {
					return nil, nil, err
				}
				toff, err := r.QualityTiming(name, org, rate, false)
				if err != nil {
					return nil, nil, err
				}
				ton, err := r.QualityTiming(name, org, rate, true)
				if err != nil {
					return nil, nil, err
				}
				noff := float64(toff.Cycles) / float64(base.timing.Cycles)
				non := float64(ton.Cycles) / float64(base.timing.Cycles)
				ra := runAvg[akey(org, rate)]
				if ra == nil {
					ra = &avg{}
					runAvg[akey(org, rate)] = ra
				}
				ra.off += noff
				ra.on += non
				ra.n++
				runT.AddRow(name, org, fmt.Sprintf("%g", rate),
					fmt.Sprintf("%.3f", noff), fmt.Sprintf("%.3f", non))
			}
		}
	}
	for _, org := range FaultOrgs {
		for _, rate := range rates {
			ea := errAvg[akey(org, rate)]
			if ea == nil || ea.n == 0 {
				continue
			}
			n := float64(ea.n)
			if org == "baseline" {
				errT.AddRow("average", org, fmt.Sprintf("%g", rate), pct(ea.off/n), "-", "-", "-", "-", "-", "-")
				continue
			}
			errT.AddRow("average", org, fmt.Sprintf("%g", rate),
				pct(ea.off/n), pct(ea.on/n), pct(ea.est/n), "-", "-", "-", "-")
			if ra := runAvg[akey(org, rate)]; ra != nil && ra.n > 0 {
				runT.AddRow("average", org, fmt.Sprintf("%g", rate),
					fmt.Sprintf("%.3f", ra.off/float64(ra.n)), fmt.Sprintf("%.3f", ra.on/float64(ra.n)))
			}
		}
	}
	return errT, runT, nil
}
