package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// perLayer lists every per-layer metric with its unit, in print order. A
// traced run reports all of them; a layer that does not run on a workload
// reads 0, and the run prints which measurements it could not take.
var perLayer = []struct{ name, unit string }{
	{"funcsim.live_s", "s"}, {"funcsim.live_ns_per_access", "ns"}, {"funcsim.gang_ns_per_access", "ns"},
	{"funcsim.accesses", "count"}, {"funcsim.replay_s", "s"}, {"funcsim.replay_ns_per_access", "ns"},
	{"timesim.s", "s"}, {"timesim.ns_per_instruction", "ns"}, {"timesim.instructions", "count"},
	{"stats.observe_s", "s"}, {"stats.snapshots", "count"},
	{"trace.scrub_s", "s"}, {"trace.encode_mb_per_s", "MB/s"}, {"trace.decode_mb_per_s", "MB/s"},
	{"trace.io_s", "s"}, {"trace.bytes_read", "bytes"}, {"trace.bytes_written", "bytes"},
	{"trace.records", "count"}, {"trace.replays", "count"},
	{"trace.decoded_cache.hit_ratio", "ratio"}, {"trace.decoded_cache.evictions", "count"}, {"trace.decoded_cache.bytes", "bytes"},
	{"cache.l1.hit_ratio", "ratio"}, {"cache.l2.hit_ratio", "ratio"}, {"core.llc_reads", "count"},
	{"core.doppel.read_hit_ratio", "ratio"}, {"core.doppel.reuse_ratio", "ratio"},
	{"core.unidoppel.read_hit_ratio", "ratio"}, {"core.unidoppel.reuse_ratio", "ratio"},
	{"coherence.back_invalidations", "count"},
	{"sweep.cells", "count"}, {"sweep.score_s", "s"}, {"sweep.render_s", "s"}, {"sweep.batch_lanes", "count"},
	{"sweep.unattributed_s", "s"},
	{"server.hit_ms.p50", "ms"}, {"server.hit_ms.p90", "ms"}, {"server.memo_hit_ratio", "ratio"},
	{"server.computes", "count"}, {"server.shed_ratio", "ratio"}, {"server.retries", "count"},
	{"served.memo_hit", "count"}, {"served.decoded_cache_hit", "count"}, {"served.file_replay", "count"},
	{"served.live_record", "count"}, {"served.live", "count"}, {"served.degraded", "count"},
	{"served.batched_lane", "count"},
	{"bench.tracing_overhead_s", "s"},
}

// setLayers reports every per-layer metric, taking each value from vals and
// 0 for the ones the workload does not run.
func (r *run) setLayers(vals map[string]float64) {
	for _, m := range perLayer {
		r.set(m.name, vals[m.name], m.unit)
	}
}

// batchLanes sums the lanes of every batched guarded replay a sweep
// engine's log reports; the log line is the only export of batched replay.
var batchLaneLine = regexp.MustCompile(`batched guarded replay: (\d+) lanes`)

func batchLanes(log []byte) float64 {
	var n float64
	for _, m := range batchLaneLine.FindAllSubmatch(log, -1) {
		v, _ := strconv.Atoi(string(m[1]))
		n += float64(v)
	}
	return n
}

// counterTotals reads the counters a metrics JSONL export (-metrics-out,
// sweepd's /metrics) lists under task.
func counterTotals(jsonl []byte, task string) (map[string]uint64, error) {
	out := map[string]uint64{}
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Task  string `json:"task"`
			Name  string `json:"name"`
			Kind  string `json:"kind"`
			Value uint64 `json:"value"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		if line.Task == task && line.Kind == "counter" {
			out[line.Name] = line.Value
		}
	}
	return out, sc.Err()
}

// diffTotals lists every counter whose totals differ between two runs.
func diffTotals(want, got map[string]uint64) []string {
	var diffs []string
	for name, v := range want {
		if got[name] != v {
			diffs = append(diffs, fmt.Sprintf("%s: untraced %d, traced %d", name, v, got[name]))
		}
	}
	for name, v := range got {
		if _, ok := want[name]; !ok && v != 0 {
			diffs = append(diffs, fmt.Sprintf("%s: untraced absent, traced %d", name, v))
		}
	}
	return diffs
}

// simCounters keeps the counters of the simulated hardware: the ones a
// traced drive and sweepd must agree on whatever shard or cache served a
// cell.
func simCounters(all map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for name, v := range all {
		for _, prefix := range []string{"funcsim.", "cache.", "core.", "coherence.", "timesim.", "dram.", "faults.", "quality."} {
			if strings.HasPrefix(name, prefix) {
				out[name] = v
			}
		}
	}
	return out
}

// per is num/den, or 0 when nothing was counted.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hardware derives the per-layer counts and ratios of the simulated
// hardware from a run's counters.
func hardware(counters map[string]uint64) map[string]float64 {
	c := func(name string) float64 { return float64(counters[name]) }
	return map[string]float64{
		"funcsim.accesses":              c("funcsim.loads") + c("funcsim.stores"),
		"timesim.instructions":          c("timesim.instructions"),
		"cache.l1.hit_ratio":            per(c("cache.l1.hits"), c("cache.l1.hits")+c("cache.l1.misses")),
		"cache.l2.hit_ratio":            per(c("cache.l2.hits"), c("cache.l2.hits")+c("cache.l2.misses")),
		"core.llc_reads":                c("funcsim.llc.reads"),
		"core.doppel.read_hit_ratio":    per(c("core.doppel.read_hits"), c("core.doppel.reads")),
		"core.doppel.reuse_ratio":       per(c("core.doppel.reuse_links"), c("core.doppel.inserts")),
		"core.unidoppel.read_hit_ratio": per(c("core.unidoppel.read_hits"), c("core.unidoppel.reads")),
		"core.unidoppel.reuse_ratio":    per(c("core.unidoppel.reuse_links"), c("core.unidoppel.inserts")),
		"coherence.back_invalidations":  c("coherence.back_invalidations"),
	}
}

// functionalCells is the number of grid cells that make a functional run:
// per benchmark the baseline and the eight error cells.
const functionalCells = 9 * (1 + 5 + 3)

// cpuSeconds is this process's user+system CPU so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid "who"
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// driveCPU runs a traced drive and returns the CPU it took.
func driveCPU(drive func() error) (float64, error) {
	cpu0 := cpuSeconds()
	err := drive()
	return cpuSeconds() - cpu0, err
}

// writeSpans prints a drive's span table and writes every span, with its
// parent, to .bench_build/spans-<workload>.jsonl.
func (r *run) writeSpans(g *grid, workload string) error {
	printSpans(os.Stdout, g.sp.stats())
	path := filepath.Join(r.root, ".bench_build", "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.sp.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(g.sp.done), path)
	return nil
}

// layerMetrics derives the per-layer metrics a drive's spans give: self
// times, per-unit costs (self time ÷ count) and throughputs. The probe's
// replay of the baselines counts toward replay cost per access.
func (g *grid) layerMetrics(probeReplayS, probeAccesses float64) map[string]float64 {
	st := g.sp.stats()
	tot := func(name string) float64 { return float64(g.totals.CounterValue(name)) }
	replaySelf := st["funcsim.replay"].SelfS + probeReplayS
	replayAcc := float64(g.replayAccesses) + probeAccesses
	return map[string]float64{
		"funcsim.live_s":               st["funcsim.live"].SelfS,
		"funcsim.live_ns_per_access":   per(st["funcsim.live"].SelfS*1e9, float64(g.liveAccesses)),
		"funcsim.gang_ns_per_access":   per((g.baselineLiveS-probeReplayS)*1e9, g.baselineAccess),
		"funcsim.replay_s":             st["funcsim.replay"].SelfS,
		"funcsim.replay_ns_per_access": per(replaySelf*1e9, replayAcc),
		"timesim.s":                    st["timesim"].SelfS,
		"timesim.ns_per_instruction":   per(st["timesim"].SelfS*1e9, tot("timesim.instructions")),
		"stats.observe_s":              st["stats.observe"].SelfS,
		"stats.snapshots":              float64(st["stats.observe"].Calls),
		"trace.scrub_s":                st["trace.scrub"].TotalS,
		"trace.encode_mb_per_s":        per(float64(g.encodeBytes)/1e6, st["probe.encode"].TotalS),
		"trace.decode_mb_per_s":        per(float64(g.decodeBytes)/1e6, st["trace.decode"].TotalS+st["probe.decode"].TotalS),
		"trace.io_s":                   st["trace.io"].SelfS,
		"trace.bytes_read":             float64(g.fs.bytesRead),
		"trace.bytes_written":          float64(g.fs.bytesOut),
		"sweep.cells":                  float64(g.cells),
		"sweep.score_s":                st["sweep.score"].SelfS,
		"sweep.render_s":               st["sweep.render"].TotalS,
		"sweep.unattributed_s":         st["sweep.grid"].SelfS,
	}
}

// regenTraced is regen-cold's traced run. An untraced CLI regeneration on
// one worker with -metrics-out gives the reference counter totals, the log
// and the CPU time the traced drive is compared with. The drive (grid.go)
// then runs the same cells through the layers' public functions with
// spans, on one goroutine. Its counter totals must equal the CLI's, and
// the tables it renders must equal the golden set.
func (r *run) regenTraced() error {
	ref := filepath.Join(r.work, "metrics.jsonl")
	var log bytes.Buffer
	u, err := r.invoke(&log, "experiments", "-scale", scaleArg, "-workers", "1", "-metrics-out", ref, "all")
	if err != nil {
		return err
	}
	fmt.Printf("untraced regeneration on one worker with -metrics-out: %v\n", u)
	r.checkTables("untraced regeneration", u.stdout)
	b, err := os.ReadFile(ref)
	if err != nil {
		return err
	}
	want, err := counterTotals(b, "total")
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := newGrid(ctx, "")
	gridCPU, err := driveCPU(g.run)
	if err != nil {
		return err
	}
	probeReplayS, probeAccesses, err := g.probe(filepath.Join(r.work, "probe-traces"))
	if err != nil {
		return err
	}
	tables, err := g.render(r.work)
	if err != nil {
		return err
	}
	if err := r.writeSpans(g, "regen-cold"); err != nil {
		return err
	}
	fmt.Printf("probe: %d baselines encoded (%d bytes), decoded and replayed (%.0f accesses, %.6f s self)\n",
		g.sp.stats()["probe.encode"].Calls, g.encodeBytes, probeAccesses, probeReplayS)
	r.checkTables("traced run", []byte(tables))
	r.attempted++
	if diffs := diffTotals(want, g.counters()); len(diffs) > 0 {
		r.fail(1, "traced run did different work than the untraced run:\n  %s", strings.Join(diffs, "\n  "))
	} else {
		fmt.Printf("traced counter totals equal the untraced run's (%d counters)\n", len(want))
	}

	vals := g.layerMetrics(probeReplayS, probeAccesses)
	replays, records := float64(want["trace.replays"]), float64(want["trace.records"])
	dcHits, dcMisses := float64(want["trace.decoded_cache.hits"]), float64(want["trace.decoded_cache.misses"])
	for name, v := range hardware(want) {
		vals[name] = v
	}
	for name, v := range map[string]float64{
		"trace.decoded_cache.hit_ratio": per(dcHits, dcHits+dcMisses),
		"trace.decoded_cache.evictions": float64(want["trace.decoded_cache.evictions"]),
		"trace.replays":                 replays,
		"trace.records":                 records,
		"sweep.batch_lanes":             batchLanes(log.Bytes()),
		"served.decoded_cache_hit":      dcHits,
		"served.file_replay":            replays - dcHits,
		"served.live_record":            records,
		"served.degraded":               float64(want["trace.degraded"]),
		"served.live":                   functionalCells - replays - records,
		"bench.tracing_overhead_s":      gridCPU - u.cpu,
	} {
		vals[name] = v
	}
	vals["served.batched_lane"] = vals["sweep.batch_lanes"]
	fmt.Printf("tracing overhead: traced grid %.3f s CPU vs untraced %.3f s CPU, both on one worker\n", gridCPU, u.cpu)
	fmt.Printf("served by (%d functional cells): live %.0f, live record %.0f, file replay %.0f, decoded-cache hit %.0f, degraded %.0f, batched lane %.0f; memo hits are not a regeneration path\n",
		functionalCells, vals["served.live"], records, replays-dcHits, dcHits, vals["served.degraded"], vals["sweep.batch_lanes"])
	fmt.Println("not run on this workload (read 0): server.*, funcsim.replay_s, trace.{scrub_s,io_s,bytes_read,bytes_written,records,replays}, trace.decoded_cache.*")
	r.setLayers(vals)
	return nil
}

// serveTraced is serve-warm's traced run: one recording pass, then one
// pass of the stream with sweepd's log on (the log is the only export of
// batched replay). The pass times every request at the server's front
// door; the server's own counters come from /v1/stats and /metrics. Layer
// calls inside sweepd are out of a span's reach, so the drive (grid_serve.go)
// then serves the cells the pass computed through the layers' public
// functions as sweepd's shards serve them, and its simulated-hardware
// counters must equal sweepd's. Tracing overhead is the drive's CPU minus
// sweepd's for the pass, which computed the same cells.
func (r *run) serveTraced() error {
	pc, err := newPayloadChecker()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	distinct := drawCells(rng)
	jobs, firsts := arrange(distinct, rng)
	dir := filepath.Join(r.work, "serve-traces")
	if _, err := r.recordPass(pc, "set-up: recording pass", dir, distinct); err != nil {
		return err
	}
	var log lockedBuffer
	p, err := r.servePassOnce(dir, jobs, false, &log)
	if err != nil {
		return err
	}
	r.score(pc, "traced pass", p.replies)
	fmt.Printf("pass: wall %.3f s, sweepd cpu %.3f s, peak rss %.1f MB, host steal %.2f s\n", p.wall, p.cpu, p.rssMB, p.steal)

	computed, hits := latencies(p.replies)
	printPercentiles("server.hit_ms (cached=true)", hits)
	printPercentiles("compute latency (cached=false)", computed)
	byKind := map[string][]float64{}
	for _, rep := range p.replies {
		if rep.err == nil && !rep.resp.Cached {
			byKind[rep.job.Kind] = append(byKind[rep.job.Kind], float64(rep.latency)/float64(time.Millisecond))
		}
	}
	for _, k := range []string{"split-error", "uni-error", "fault-error", "quality-error", "split-timing", "uni-timing", "baseline-timing"} {
		if ms := byKind[k]; len(ms) > 0 {
			fmt.Printf("compute latency %-15s n=%3d median %.3f ms\n", k, len(ms), median(ms))
		}
	}
	reg, err := counterTotals(p.metrics, "server")
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := newGrid(ctx, dir)
	cpu, err := driveCPU(func() error { return g.serve(firsts) })
	if err != nil {
		return err
	}
	if err := r.writeSpans(g, "serve-warm"); err != nil {
		return err
	}
	r.attempted++
	if diffs := diffTotals(simCounters(reg), simCounters(g.counters())); len(diffs) > 0 {
		r.fail(1, "traced drive did different work than sweepd:\n  %s", strings.Join(diffs, "\n  "))
	} else {
		fmt.Printf("traced drive's simulated-hardware counters equal sweepd's (%d counters)\n", len(simCounters(reg)))
	}

	st := p.stats
	hitP50, _ := percentile(hits, 0.5)
	hitP90, _ := percentile(hits, 0.9)
	var dcHits, dcMisses, dcEvictions, dcBytes float64
	if st.DecodedCache != nil {
		dcHits, dcMisses = float64(st.DecodedCache.Hits), float64(st.DecodedCache.Misses)
		dcEvictions, dcBytes = float64(st.DecodedCache.Evictions), float64(st.DecodedCache.Bytes)
	}
	shed := float64(st.ShedRate + st.ShedQueue)
	vals := g.layerMetrics(0, 0)
	for name, v := range hardware(reg) {
		vals[name] = v
	}
	for name, v := range map[string]float64{
		"trace.records":                 float64(st.TraceRecords),
		"trace.replays":                 float64(st.TraceReplays),
		"trace.decoded_cache.hit_ratio": per(dcHits, dcHits+dcMisses),
		"trace.decoded_cache.evictions": dcEvictions,
		"trace.decoded_cache.bytes":     dcBytes,
		"sweep.cells":                   float64(st.Computes),
		"sweep.batch_lanes":             batchLanes([]byte(log.String())),
		"server.hit_ms.p50":             hitP50,
		"server.hit_ms.p90":             hitP90,
		"server.memo_hit_ratio":         per(float64(st.CacheHits), float64(st.Completed)),
		"server.computes":               float64(st.Computes),
		"server.shed_ratio":             per(shed, float64(st.Completed)+shed),
		"server.retries":                float64(st.Retries),
		"served.memo_hit":               float64(st.CacheHits),
		"served.decoded_cache_hit":      dcHits,
		"served.file_replay":            float64(st.TraceReplays) - dcHits,
		"served.live_record":            float64(st.TraceRecords),
		"served.degraded":               float64(st.Degraded),
		"bench.tracing_overhead_s":      cpu - p.cpu,
	} {
		vals[name] = v
	}
	vals["served.batched_lane"] = vals["sweep.batch_lanes"]
	fmt.Printf("served by: %s\n", st.servedBy(len(hits)))
	fmt.Printf("tracing overhead: traced drive %.3f s CPU vs sweepd %.3f s CPU for the pass's %d computed cells\n", cpu, p.cpu, len(distinct))
	fmt.Println("not run on this workload (read 0): funcsim.live_*, funcsim.gang_ns_per_access, trace.encode_mb_per_s, sweep.render_s")
	r.setLayers(vals)
	return nil
}
