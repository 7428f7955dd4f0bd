package workloads

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"doppelganger/internal/approx"
	"doppelganger/internal/core"
	"doppelganger/internal/funcsim"
	"doppelganger/internal/memdata"
	"doppelganger/internal/metrics"
	"doppelganger/internal/trace"
)

// CaptureIdent builds the canonical identity string for one functional
// cell's capture: the cell key (benchmark + organization + sweep point),
// the workload scale, the core count, and any extra "|k=v" identity the
// key doesn't carry (seeds, budgets). The "dgtf1|" prefix versions the
// identity scheme itself — changing how identities are composed must bump
// it so old files go stale rather than mismatch silently.
func CaptureIdent(cellKey string, scale float64, cores int, extra string) string {
	return fmt.Sprintf("dgtf1|%s|scale=%g|cores=%d%s", cellKey, scale, cores, extra)
}

// CapturePath maps a capture identity string to its file name in dir. The
// name is a 64-bit FNV-1a of the full identity, so any change to what a
// capture depends on (scale, cores, seeds, organization) lands in a
// different file; the identity itself is stored in the file header and
// verified again when the capture gateway loads it.
func CapturePath(dir, ident string) string {
	h := fnv.New64a()
	h.Write([]byte(ident))
	return filepath.Join(dir, fmt.Sprintf("%016x.dgt", h.Sum64()))
}

// CaptureOf packages a recorded functional run as a persistable capture.
// The run must have been made with RunOptions.Record set.
func CaptureOf(run *RunResult, hdr trace.FileHeader) (*trace.Capture, error) {
	if run.Recorder == nil || run.InitialMem == nil {
		return nil, fmt.Errorf("workloads: run was not recorded (RunOptions.Record)")
	}
	return &trace.Capture{
		Header:      hdr,
		Annotations: run.Annotations,
		InitialMem:  run.InitialMem,
		Recorder:    run.Recorder,
		Output:      run.Output,
	}, nil
}

// loadOutcome classifies what loadCaptureRecover did, so callers can pick
// the right recovery without re-deriving it from error chains.
type loadOutcome int

const (
	// loadOK: the capture decoded, matched its identity, and is returned.
	loadOK loadOutcome = iota
	// loadMiss: no capture exists at the path — the ordinary cold-cache
	// case; record one.
	loadMiss
	// loadQuarantined: the file was corrupt or stale; it has been moved to
	// the quarantine and the path is now free to re-record.
	loadQuarantined
	// loadUnavailable: the I/O path failed (device error, permissions) —
	// the file was left alone and the caller should fall back to live
	// execution without persisting.
	loadUnavailable
)

// loadCaptureRecover is the self-healing load: it reads the capture at
// path and verifies it was recorded under the identity and core count the
// caller is about to consume it under. On failure it routes the file to the
// right remedy — corrupt or stale captures (produced by a different
// configuration, seed, or code revision) are quarantined under traceDir,
// freeing the path for transparent re-recording; missing files report a
// plain miss; I/O failures report the store unavailable. The returned error
// explains any non-OK outcome; for loadMiss it is nil. outputOnly loads
// with the output-only decode: the file is still fully read and
// integrity-checked, but its memory image and streams are not materialized.
func loadCaptureRecover(fsys trace.FS, traceDir, path, configKey string, cores int, outputOnly bool) (*trace.Capture, loadOutcome, error) {
	read := trace.ReadCaptureFileFS
	if outputOnly {
		read = trace.ReadCaptureOutputFileFS
	}
	c, err := read(fsys, path)
	if err == nil {
		switch {
		case c.Header.ConfigKey != configKey:
			err = fmt.Errorf("%s: %w: recorded for %q, wanted %q", path, trace.ErrStale, c.Header.ConfigKey, configKey)
		case c.Header.Cores != cores:
			err = fmt.Errorf("%s: %w: recorded with %d cores, wanted %d", path, trace.ErrStale, c.Header.Cores, cores)
		default:
			return c, loadOK, nil
		}
	}
	if errors.Is(err, os.ErrNotExist) {
		return nil, loadMiss, nil
	}
	if trace.IsQuarantineable(err) {
		dest, qerr := trace.Quarantine(fsys, traceDir, path, err.Error())
		if qerr != nil {
			return nil, loadUnavailable, fmt.Errorf("%w (quarantine failed: %v)", err, qerr)
		}
		if dest == "" {
			dest = "(already quarantined by a racing process)"
		}
		return nil, loadQuarantined, fmt.Errorf("%w (quarantined to %s)", err, dest)
	}
	return nil, loadUnavailable, err
}

// CaptureGateway is the road every functional run takes through a trace
// directory. Without a directory it is exactly the live path. With one, the
// first run of a cell executes live (recording) and persists a capture, and
// later runs replay it: output-only runs are served from the capture's
// output, and runs that need cache-state side effects (baseline snapshots,
// quality guards) replay the stream through a fresh hierarchy, which
// evolves bit-identically to the live run.
//
// Storage faults never fail a run (outside Replay): a corrupt or stale
// capture is quarantined and transparently re-recorded, and an unavailable
// store — read errors, ENOSPC, unwritable dir — degrades the run to plain
// live execution, counted in trace.degraded. Either way the result is
// bit-identical to a clean run's. A failure of the live run itself still
// propagates.
type CaptureGateway struct {
	// Dir is the trace directory ("": every run is live) and FS the
	// filesystem under it (nil: the real OS).
	Dir string
	FS  trace.FS
	// Capture re-records even over a valid capture; Replay forbids kernel
	// execution, failing any run without a usable capture.
	Capture, Replay bool
	// Decoded, when non-nil, is a decoded-capture cache shared with other
	// gateways. It serves and keeps the captures a hierarchy replay walks
	// again; output-only runs never enter it.
	Decoded *trace.DecodedCache
	// Metrics receives the trace.replays, trace.records, trace.quarantines
	// and trace.degraded counts; Logf, when non-nil, a line per decision.
	Metrics *metrics.Registry
	Logf    func(format string, args ...interface{})
}

// CaptureCell names one functional run to the gateway. Header is what its
// recorded capture carries: ConfigKey is the identity a capture must match
// to be replayed (see CaptureIdent) and Cores the core count. Key is the
// cell key, for log lines and errors. OutputOnly marks runs whose caller
// reads only the output.
type CaptureCell struct {
	Key        string
	Header     trace.FileHeader
	OutputOnly bool
}

func (g *CaptureGateway) fs() trace.FS {
	if g.FS != nil {
		return g.FS
	}
	return trace.OS
}

func (g *CaptureGateway) logf(format string, args ...interface{}) {
	if g.Logf != nil {
		g.Logf(format, args...)
	}
}

// Run executes cell's functional run of b against the LLC organization llcb
// builds, replaying its capture when a usable one exists and recording one
// otherwise. b must be a fresh instance: a replay Inits it to re-derive its
// Output addresses, a live run to execute it.
func (g *CaptureGateway) Run(ctx context.Context, cell CaptureCell, b *Benchmark, llcb LLCBuilder, opt RunOptions) (*RunResult, error) {
	if g.Dir == "" {
		return RunFunctionalContext(ctx, b, llcb, opt)
	}
	fsys := g.fs()
	name, ident, cores := cell.Header.Benchmark, cell.Header.ConfigKey, cell.Header.Cores
	path := CapturePath(g.Dir, ident)
	// Output-only runs never rebuild a hierarchy, so they load with the
	// output-only decode, which skips materializing the memory image and
	// trace streams. They also stay out of the shared decoded cache: it
	// holds the captures a hierarchy replay walks again. An ident's
	// output-only-ness never varies between runs, so the decoded cache
	// never hands a lite capture to a hierarchy replay.
	decoded := g.Decoded != nil && !cell.OutputOnly
	persist := true
	if !g.Capture {
		var c *trace.Capture
		if decoded {
			// Another gateway (or an earlier run through this one) may
			// already have decoded this file.
			if c = g.decodedHit(fsys, path, ident, cores); c != nil {
				g.logf("[%s] replaying decoded capture %s (%s)", name, filepath.Base(path), cell.Key)
			}
		}
		if c == nil {
			var outcome loadOutcome
			var err error
			c, outcome, err = loadCaptureRecover(fsys, g.Dir, path, ident, cores, cell.OutputOnly)
			if g.Replay && outcome != loadOK {
				if err == nil {
					err = os.ErrNotExist
				}
				return nil, fmt.Errorf("workloads: -trace-replay: no usable capture for %s: %w", cell.Key, err)
			}
			switch outcome {
			case loadOK:
				g.logf("[%s] replaying capture %s (%s)", name, filepath.Base(path), cell.Key)
				if decoded {
					g.Decoded.Put(c.FileCRC, c)
				}
			case loadMiss:
				// Cold cache: record below.
			case loadQuarantined:
				g.Metrics.Counter("trace.quarantines").Add(1)
				g.logf("[%s] capture %s unusable (%v); re-recording", name, filepath.Base(path), err)
			case loadUnavailable:
				// The bytes may be fine but the I/O path is not: leave the
				// file alone, run live, and don't trust the store with a
				// new write either.
				persist = false
				g.Metrics.Counter("trace.degraded").Add(1)
				g.logf("[%s] trace store unavailable (%v); running %s live unrecorded", name, err, cell.Key)
			}
		}
		if c != nil {
			g.Metrics.Counter("trace.replays").Add(1)
			if cell.OutputOnly {
				return &RunResult{Output: c.Output}, nil
			}
			return ReplayFunctionalContext(ctx, b, c, llcb, opt)
		}
	}
	opt.Record = true
	run, err := RunFunctionalContext(ctx, b, llcb, opt)
	if err != nil {
		return nil, err
	}
	c, err := CaptureOf(run, cell.Header)
	if err != nil {
		return nil, err
	}
	if persist {
		err := fsys.MkdirAll(g.Dir)
		if err == nil {
			err = c.WriteFileFS(fsys, path)
		}
		if err != nil {
			// Graceful degradation: the live result is complete and
			// bit-identical to what a recorded run would produce — losing
			// the capture only costs the next run a re-record.
			g.Metrics.Counter("trace.degraded").Add(1)
			g.logf("[%s] capture %s not persisted (%v); serving live result", name, filepath.Base(path), err)
		} else {
			g.Metrics.Counter("trace.records").Add(1)
			if decoded {
				// WriteFileFS stamped c.FileCRC; the freshly recorded
				// capture is immediately servable to other gateways.
				g.Decoded.Put(c.FileCRC, c)
			}
		}
	}
	// The live run already carries every side effect (snapshots, metrics,
	// guard state).
	return run, nil
}

// decodedHit probes the decoded-capture cache for the capture at path. The
// probe reads only the file's 16-byte digest preamble, and a resident
// capture is served only if it was recorded under ident and cores; anything
// else is a miss (nil).
func (g *CaptureGateway) decodedHit(fsys trace.FS, path, ident string, cores int) *trace.Capture {
	d, err := trace.FileDigestFS(fsys, path)
	if err != nil {
		return nil
	}
	if c := g.Decoded.Get(d); c != nil && c.Header.ConfigKey == ident && c.Header.Cores == cores {
		return c
	}
	return nil
}

// LoadDecoded serves the fully decoded capture for ident from the decoded
// cache, falling back to — and populating the cache from — the trace
// directory. Any miss (no cache, cold directory, stale or corrupt capture,
// storage trouble) returns nil and leaves recovery to a later Run; a
// quarantined file is counted and moved here, exactly as Run would have,
// so net trace.* counters match a run without the shortcut.
func (g *CaptureGateway) LoadDecoded(ident string, cores int) *trace.Capture {
	if g.Decoded == nil || g.Dir == "" {
		return nil
	}
	fsys := g.fs()
	path := CapturePath(g.Dir, ident)
	if c := g.decodedHit(fsys, path, ident, cores); c != nil {
		return c
	}
	c, outcome, err := loadCaptureRecover(fsys, g.Dir, path, ident, cores, false)
	switch outcome {
	case loadOK:
		g.Decoded.Put(c.FileCRC, c)
		return c
	case loadQuarantined:
		g.Metrics.Counter("trace.quarantines").Add(1)
		g.logf("capture %s unusable (%v); quarantined for re-recording", filepath.Base(path), err)
	}
	return nil
}

// ReplayFunctionalContext reproduces a recorded functional run against the
// LLC organization built by llcb, without executing any benchmark kernel:
// the hierarchy is rebuilt over a copy-on-write clone of the captured
// initial image and driven through the recorded accesses in their original
// global order, so every cache decision — fills, evictions, map
// computations, approximate read-backs — evolves exactly as it did (or
// would have) live. Snapshots, metrics, faults and quality attachments in
// opt behave as in RunFunctionalContext.
//
// The benchmark instance is Init'd on a throwaway store first: Output
// closures capture the addresses Init assigns, and the resulting
// annotations double as a staleness check against the capture.
func ReplayFunctionalContext(ctx context.Context, b *Benchmark, cap *trace.Capture, llcb LLCBuilder, opt RunOptions) (*RunResult, error) {
	if opt.Cores == 0 {
		opt.Cores = 4
	}
	if cap.Header.Cores != opt.Cores {
		return nil, fmt.Errorf("workloads: stale capture for %s: recorded with %d cores, replaying with %d",
			b.Name, cap.Header.Cores, opt.Cores)
	}
	scratch := memdata.NewStore()
	ann := b.Init(scratch, DefaultBase)
	if !annotationsEqual(ann, cap.Annotations) {
		return nil, fmt.Errorf("workloads: stale capture for %s: annotations differ from the current layout (re-record)", b.Name)
	}
	st := cap.InitialMem.Clone()
	llc := llcb(st, ann)
	h := funcsim.New(HierConfig(opt.Cores), llc, st, ann, nil)
	defer h.PublishMetrics(opt.Metrics)
	h.AttachFaults(opt.Faults)
	h.AttachQuality(opt.Quality)
	h.SnapshotEvery = opt.SnapshotEvery
	h.SnapshotFn = opt.SnapshotFn
	if err := funcsim.ReplayStreamContext(ctx, h, cap.Recorder); err != nil {
		return nil, err
	}
	if opt.SnapshotFn != nil {
		opt.SnapshotFn(llc)
	}
	tags, blocks := llc.TagEntries(), llc.DataBlocks()
	res := &RunResult{}
	var dopp *core.Doppelganger
	switch l := llc.(type) {
	case *core.Split:
		dopp = l.Doppel
	case *core.Doppelganger:
		dopp = l
	}
	if dopp != nil {
		stats := dopp.Stats
		res.DoppelStats = &stats
		res.AvgTagsPerData = dopp.AvgTagsPerData()
		res.CompressionRatio = dopp.CompressionRatio()
	}
	h.Flush()
	res.Output = b.Output(st)
	res.Store = st
	res.InitialMem = cap.InitialMem
	res.Annotations = ann
	res.Recorder = cap.Recorder
	res.Hier = h
	res.LLC = llc
	res.TagsAtEnd = tags
	res.DataBlocksAtEnd = blocks
	return res, nil
}

// annotationsEqual reports whether two annotation sets declare identical
// regions. Region is a comparable struct, so equality is exact.
func annotationsEqual(a, b *approx.Annotations) bool {
	ra, rb := a.Regions(), b.Regions()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}
