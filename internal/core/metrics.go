package core

import (
	"strings"

	"doppelganger/internal/metrics"
)

// level is an occupancy count with its high-water mark: the plain state
// behind one occupancy gauge.
type level struct{ n, max int64 }

func (l *level) inc() {
	l.n++
	if l.n > l.max {
		l.max = l.n
	}
}

func (l *level) dec() { l.n-- }

// publish sets g to the level and raises g's high-water mark to at least
// l's, so a gauge several runs publish into keeps the highest mark any of
// them reached and the level of the last.
func (l *level) publish(g *metrics.Gauge) {
	g.Set(l.max)
	g.Set(l.n)
}

// metricName lowercases a config name for use as a metric path segment.
func metricName(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), " ", "_")
}

// PublishMetrics adds the cache's Stats to reg under "core.<name>.*", plus
// approx_substitutions (reuse links on insert plus remaps on writeback: the
// times a block's payload was replaced by similar data already resident, the
// defining approximation event of the design) and two gauges for the live
// occupancy of the decoupled tag and data arrays, with high-water marks. A
// nil registry is a no-op.
func (d *Doppelganger) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	prefix := "core." + metricName(d.cfg.Name) + "."
	s := &d.Stats
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"reads", s.Reads},
		{"read_hits", s.ReadHits},
		{"writebacks", s.WriteBacks},
		{"silent_writes", s.SilentWrites},
		{"remaps", s.Remaps},
		{"write_allocs", s.WriteAllocs},
		{"writeback_misses", s.WritebackMisses},
		{"inserts", s.Inserts},
		{"reuse_links", s.ReuseLinks},
		{"new_data_blocks", s.NewDataBlocks},
		{"tag_evictions", s.TagEvictions},
		{"dirty_tag_evictions", s.DirtyTagEvictions},
		{"data_evictions", s.DataEvictions},
		{"map_gens", s.MapGens},
		{"approx_substitutions", s.ReuseLinks + s.Remaps},
		{"quality_bypasses", s.QualityBypasses},
	} {
		reg.Counter(prefix + c.name).Add(c.v)
	}
	d.tagsOcc.publish(reg.Gauge(prefix + "tags_occupied"))
	d.dataOcc.publish(reg.Gauge(prefix + "data_occupied"))
}

// PublishMetrics publishes the baseline LLC's array ("cache.<name>.*").
func (b *Baseline) PublishMetrics(reg *metrics.Registry) {
	b.arr.PublishMetrics(reg)
}

// PublishMetrics publishes both halves of the split organization.
func (s *Split) PublishMetrics(reg *metrics.Registry) {
	s.Precise.PublishMetrics(reg)
	s.Doppel.PublishMetrics(reg)
}
