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
// verified again by LoadCapture.
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

// LoadCapture reads a capture file and verifies it matches the identity the
// caller is about to consume it under. A mismatch means the capture is
// stale — produced by a different configuration, seed, or code revision —
// and must be re-recorded, never silently replayed.
func LoadCapture(path, configKey string, cores int) (*trace.Capture, error) {
	return loadCapture(trace.ReadCaptureFile, path, configKey, cores)
}

// LoadCaptureOutput is LoadCapture for consumers that only serve the
// capture's output vector: the file is still fully read and
// integrity-checked, but the memory image and trace streams are not
// materialized, so warm output-only cells cost no allocation proportional
// to the recorded run.
func LoadCaptureOutput(path, configKey string, cores int) (*trace.Capture, error) {
	return loadCapture(trace.ReadCaptureOutputFile, path, configKey, cores)
}

func loadCapture(read func(string) (*trace.Capture, error), path, configKey string, cores int) (*trace.Capture, error) {
	c, err := read(path)
	if err != nil {
		return nil, err
	}
	if c.Header.ConfigKey != configKey {
		return nil, fmt.Errorf("%s: %w: recorded for %q, wanted %q", path, trace.ErrStale, c.Header.ConfigKey, configKey)
	}
	if c.Header.Cores != cores {
		return nil, fmt.Errorf("%s: %w: recorded with %d cores, wanted %d", path, trace.ErrStale, c.Header.Cores, cores)
	}
	return c, nil
}

// LoadOutcome classifies what LoadCaptureRecover did, so callers can pick
// the right recovery without re-deriving it from error chains.
type LoadOutcome int

const (
	// LoadOK: the capture decoded, matched its identity, and is returned.
	LoadOK LoadOutcome = iota
	// LoadMiss: no capture exists at the path — the ordinary cold-cache
	// case; record one.
	LoadMiss
	// LoadQuarantined: the file was corrupt or stale; it has been moved to
	// the quarantine and the path is now free to re-record.
	LoadQuarantined
	// LoadUnavailable: the I/O path failed (device error, permissions) —
	// the file was left alone and the caller should fall back to live
	// execution without persisting.
	LoadUnavailable
)

// LoadCaptureRecover is the self-healing load: it reads and identity-checks
// the capture at path, and on failure routes the file to the right remedy —
// corrupt or stale captures are quarantined under traceDir (freeing the
// path for transparent re-recording), missing files report a plain miss,
// and I/O failures report the store unavailable. The returned error
// explains any non-OK outcome; for LoadMiss it is nil.
func LoadCaptureRecover(fsys trace.FS, traceDir, path, configKey string, cores int, outputOnly bool) (*trace.Capture, LoadOutcome, error) {
	read := func(p string) (*trace.Capture, error) { return trace.ReadCaptureFileFS(fsys, p) }
	if outputOnly {
		read = func(p string) (*trace.Capture, error) { return trace.ReadCaptureOutputFileFS(fsys, p) }
	}
	c, err := loadCapture(read, path, configKey, cores)
	if err == nil {
		return c, LoadOK, nil
	}
	if errors.Is(err, os.ErrNotExist) {
		return nil, LoadMiss, nil
	}
	if trace.IsQuarantineable(err) {
		dest, qerr := trace.Quarantine(fsys, traceDir, path, err.Error())
		if qerr != nil {
			return nil, LoadUnavailable, fmt.Errorf("%w (quarantine failed: %v)", err, qerr)
		}
		if dest == "" {
			dest = "(already quarantined by a racing process)"
		}
		return nil, LoadQuarantined, fmt.Errorf("%w (quarantined to %s)", err, dest)
	}
	return nil, LoadUnavailable, err
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
	h.AttachMetrics(opt.Metrics)
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
