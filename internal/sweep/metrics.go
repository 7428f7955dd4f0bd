package sweep

import (
	"io"
	"sort"

	"doppelganger/internal/metrics"
)

// TaskMetrics is one simulation task's counter snapshot, labeled by the
// runner's memo key (e.g. "split/jpeg/14/0.25/timing").
type TaskMetrics struct {
	Task    string
	Samples []metrics.Sample
}

// instrument hands out a fresh child registry for one simulation task, or
// nil (the zero-cost disabled path) when the runner has no metrics sink.
// Each task gets its own registry so per-task snapshots stay isolated even
// while the worker pool runs tasks concurrently; collect folds them into the
// aggregate.
func (r *Runner) instrument() *metrics.Registry {
	if r.Metrics == nil {
		return nil
	}
	return metrics.NewRegistry()
}

// collect merges a completed task's child registry into the runner-wide
// aggregate and, when TaskMetrics is set, records a labeled snapshot.
// Merging is commutative, so the aggregate is identical for every worker
// count and scheduling order.
func (r *Runner) collect(task string, child *metrics.Registry) {
	if r.Metrics == nil || child == nil {
		return
	}
	r.metricsMu.Lock()
	defer r.metricsMu.Unlock()
	r.Metrics.Merge(child)
	if r.TaskMetrics {
		r.taskSnaps = append(r.taskSnaps, TaskMetrics{Task: task, Samples: child.Snapshot()})
	}
}

// nextTracePID allocates a process lane for one timing run in the shared
// Chrome trace.
func (r *Runner) nextTracePID() int {
	r.metricsMu.Lock()
	defer r.metricsMu.Unlock()
	r.tracePIDs++
	return r.tracePIDs
}

// TaskSnapshots returns the per-task snapshots collected so far, sorted by
// task label (collection order depends on worker scheduling; the sorted view
// is deterministic).
func (r *Runner) TaskSnapshots() []TaskMetrics {
	r.metricsMu.Lock()
	defer r.metricsMu.Unlock()
	out := make([]TaskMetrics, len(r.taskSnaps))
	copy(out, r.taskSnaps)
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// WriteMetricsJSONL emits every per-task snapshot kept (sorted by task
// label; none unless TaskMetrics is set) followed by the runner-wide
// aggregate under the task label "total", one JSON object per line. A
// runner without a metrics sink writes nothing.
func (r *Runner) WriteMetricsJSONL(w io.Writer) error {
	if r.Metrics == nil {
		return nil
	}
	for _, tm := range r.TaskSnapshots() {
		if err := metrics.WriteJSONL(w, tm.Task, tm.Samples); err != nil {
			return err
		}
	}
	return r.Metrics.WriteJSONL(w, "total")
}
