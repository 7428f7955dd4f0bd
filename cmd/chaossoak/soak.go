package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"doppelganger/internal/metrics"
	"doppelganger/internal/sweep"
	"doppelganger/internal/trace"
)

// soakCells are the grid cells the soak's table is built from. The set is
// small enough to re-run every round yet exercises both organizations, two
// benchmarks and their shared precise baselines — six capture files total.
var soakCells = []sweep.Cell{
	{Kind: "split-error", Bench: "kmeans", M: 12, Frac: 0.25},
	{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25},
	{Kind: "uni-error", Bench: "kmeans", M: 14, Frac: 0.25},
	{Kind: "split-error", Bench: "swaptions", M: 14, Frac: 0.25},
}

// Config parameterizes one soak.
type Config struct {
	Rounds int     // chaos rounds to run
	Scale  float64 // workload scale (small: each round replays the table)
	Seed   int64   // chaos RNG seed; the same seed replays the same faults
	Dir    string  // trace directory under attack ("" = a fresh temp dir)
	Logf   func(format string, args ...interface{})
}

// Report is the soak's outcome, serialized to BENCH_9.json. Every field is
// cumulative over all rounds.
type Report struct {
	Rounds        int     `json:"rounds"`
	Scale         float64 `json:"scale"`
	Seed          int64   `json:"seed"`
	CorruptRounds int     `json:"corrupt_rounds"`
	CrashRounds   int     `json:"crash_rounds"`
	ChaosFSRounds int     `json:"chaosfs_rounds"`

	CorruptionsInjected int    `json:"corruptions_injected"`
	OrphanTempsPlanted  int    `json:"orphan_temps_planted"`
	WorkersKilled       int    `json:"workers_killed"`
	FSFaultsInjected    uint64 `json:"fs_faults_injected"`

	TempsRemoved int    `json:"temps_removed"`
	Quarantined  int    `json:"quarantined"`
	Unreadable   int    `json:"unreadable"`
	Replays      uint64 `json:"trace_replays"`
	Records      uint64 `json:"trace_records"`
	Degraded     uint64 `json:"trace_degraded"`

	ByteIdentical bool   `json:"byte_identical"`
	Goroutines    int    `json:"goroutine_baseline"`
	DurationMS    int64  `json:"duration_ms"`
	FailedRound   int    `json:"failed_round,omitempty"`
	Failure       string `json:"failure,omitempty"`
}

// workerEnv flags a child process into worker mode: it runs one recording
// pass over the trace directory and exits. The parent SIGKILLs it at a
// random point to simulate a crashed recorder. maybeWorker is called first
// thing by both main() and TestMain, so the soak can re-exec whichever
// binary it lives in.
const (
	workerEnv      = "CHAOSSOAK_WORKER"
	workerDirEnv   = "CHAOSSOAK_DIR"
	workerScaleEnv = "CHAOSSOAK_SCALE"
)

func maybeWorker() {
	if os.Getenv(workerEnv) == "" {
		return
	}
	scale, err := strconv.ParseFloat(os.Getenv(workerScaleEnv), 64)
	if err != nil || scale <= 0 {
		fmt.Fprintf(os.Stderr, "chaossoak worker: bad scale %q\n", os.Getenv(workerScaleEnv))
		os.Exit(2)
	}
	// The worker behaves like a real CLI: open (lock + scrub) the store,
	// then run the table, recording whatever captures are missing.
	dir := os.Getenv(workerDirEnv)
	store, err := trace.OpenStore(trace.OS, dir, trace.VerifyOpen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaossoak worker: %v\n", err)
		os.Exit(1)
	}
	defer store.Close()
	if _, err := renderTable(soakRunner(scale, dir, nil)); err != nil {
		fmt.Fprintf(os.Stderr, "chaossoak worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// soakRunner builds the runner every pass uses: same scale, same subset, an
// optional fault-injecting filesystem, always a fresh registry so per-pass
// counters are attributable.
func soakRunner(scale float64, dir string, fsys trace.FS) *sweep.Runner {
	r := sweep.NewRunner(scale)
	r.Only = []string{"kmeans", "swaptions"}
	r.TraceDir = dir
	r.TraceFS = fsys
	r.Metrics = metrics.NewRegistry()
	return r
}

// renderTable computes every soak cell and renders the byte-exact table the
// soak compares across rounds: one line per cell with the error's full
// float64 bit pattern. Any divergence anywhere in the simulation shows up.
func renderTable(r *sweep.Runner) (string, error) {
	var b strings.Builder
	for _, c := range soakCells {
		res, err := r.Run(context.Background(), c)
		if err != nil {
			return "", fmt.Errorf("%s: %w", c.Key(), err)
		}
		fmt.Fprintf(&b, "%s %016x\n", c.Key(), math.Float64bits(res.Error))
	}
	return b.String(), nil
}

// captureFiles lists the .dgt files currently in the trace directory.
func captureFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".dgt") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

// corruptFile damages one capture in a way the scrub must catch: a bit flip,
// a truncation, or an XOR smear over a random window. All three guarantee
// the bytes actually change.
func corruptFile(path string, rng *rand.Rand) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if len(data) == 0 {
		return "", fmt.Errorf("%s: empty capture", path)
	}
	var kind string
	switch rng.Intn(3) {
	case 0:
		kind = "bitflip"
		data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
	case 1:
		kind = "truncate"
		data = data[:rng.Intn(len(data))]
	default:
		kind = "smear"
		off := rng.Intn(len(data))
		end := off + 32
		if end > len(data) {
			end = len(data)
		}
		for i := off; i < end; i++ {
			data[i] ^= 0xA5
		}
	}
	return kind, os.WriteFile(path, data, 0o644)
}

// deleteSome removes up to n random captures so the next pass has something
// to re-record (a warm directory replays everything and writes nothing).
func deleteSome(files []string, n int, rng *rand.Rand) int {
	deleted := 0
	for i := 0; i < n && len(files) > 0; i++ {
		j := rng.Intn(len(files))
		if os.Remove(files[j]) == nil {
			deleted++
		}
		files = append(files[:j], files[j+1:]...)
	}
	return deleted
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (plus slack for runtime helpers); a count that never settles is a
// leak.
func settleGoroutines(baseline int) error {
	const slack = 4
	var n int
	for i := 0; i < 100; i++ {
		if n = runtime.NumGoroutine(); n <= baseline+slack {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("goroutine leak: %d live, baseline %d (+%d slack)", n, baseline, slack)
}

// addRunnerCounters folds one pass's trace counters into the report.
func (rep *Report) addRunnerCounters(r *sweep.Runner) {
	rep.Replays += r.Metrics.CounterValue("trace.replays")
	rep.Records += r.Metrics.CounterValue("trace.records")
	rep.Degraded += r.Metrics.CounterValue("trace.degraded")
}

// Run executes the soak: a clean reference pass establishes the golden
// table, then every round injects one class of fault (file corruption,
// SIGKILL of a recording worker process, or a fault-injecting filesystem)
// and proves the store heals — scrub quarantines exactly the damaged
// captures, the re-run table is byte-identical to the golden, no temp files
// survive, and goroutines return to baseline.
func Run(cfg Config) (*Report, error) {
	start := time.Now()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	rep := &Report{Rounds: cfg.Rounds, Scale: cfg.Scale, Seed: cfg.Seed}
	fail := func(round int, format string, args ...interface{}) (*Report, error) {
		err := fmt.Errorf(format, args...)
		rep.FailedRound = round
		rep.Failure = err.Error()
		rep.DurationMS = time.Since(start).Milliseconds()
		return rep, err
	}

	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "chaossoak-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep.Goroutines = runtime.NumGoroutine()

	// The golden table: every cell live, no trace directory in the loop.
	golden, err := renderTable(soakRunner(cfg.Scale, "", nil))
	if err != nil {
		return fail(0, "golden pass: %v", err)
	}
	// Cold pass populates the directory and must already match.
	cold := soakRunner(cfg.Scale, dir, nil)
	if got, err := renderTable(cold); err != nil {
		return fail(0, "cold pass: %v", err)
	} else if got != golden {
		return fail(0, "cold pass diverged from golden:\n%s\nvs\n%s", got, golden)
	}
	rep.addRunnerCounters(cold)
	files, err := captureFiles(dir)
	if err != nil {
		return fail(0, "list captures: %v", err)
	}
	logf("golden established (%d captures), %d rounds begin", len(files), cfg.Rounds)

	for round := 1; round <= cfg.Rounds; round++ {
		files, err := captureFiles(dir)
		if err != nil {
			return fail(round, "list captures: %v", err)
		}
		wantQuarantined := 0
		switch action := rng.Intn(3); action {
		case 0: // corrupt 1-2 captures on disk, plus sometimes an orphan temp
			rep.CorruptRounds++
			n := 1 + rng.Intn(2)
			if n > len(files) {
				n = len(files)
			}
			for _, j := range rng.Perm(len(files))[:n] {
				kind, err := corruptFile(files[j], rng)
				if err != nil {
					return fail(round, "corrupt %s: %v", files[j], err)
				}
				logf("round %d: %s %s", round, kind, filepath.Base(files[j]))
				rep.CorruptionsInjected++
				wantQuarantined++
			}
			if rng.Intn(2) == 0 {
				orphan := filepath.Join(dir, fmt.Sprintf("orphan.dgt.tmp-%d", rng.Int()))
				if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
					return fail(round, "plant orphan: %v", err)
				}
				rep.OrphanTempsPlanted++
			}
		case 1: // SIGKILL a recording worker process mid-run
			rep.CrashRounds++
			deleteSome(files, 1+rng.Intn(2), rng)
			cmd := exec.Command(self)
			cmd.Env = append(os.Environ(),
				workerEnv+"=1", workerDirEnv+"="+dir,
				workerScaleEnv+"="+strconv.FormatFloat(cfg.Scale, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return fail(round, "start worker: %v", err)
			}
			delay := time.Duration(rng.Intn(800)) * time.Millisecond
			time.Sleep(delay)
			cmd.Process.Kill()
			cmd.Wait()
			rep.WorkersKilled++
			logf("round %d: SIGKILLed recording worker after %v", round, delay)
		default: // run through a fault-injecting filesystem
			rep.ChaosFSRounds++
			deleteSome(files, 1, rng)
			chaos := trace.NewChaosFS(rng.Int63())
			chaos.OpenErr, chaos.ReadErr = 0.05, 0.05
			chaos.WriteErr, chaos.RenameErr, chaos.ShortWrite = 0.10, 0.10, 0.05
			chaos.Latency = time.Millisecond
			if rng.Intn(3) == 0 {
				chaos.ENOSPCWindow(1 + rng.Intn(3))
			}
			r := soakRunner(cfg.Scale, dir, chaos)
			got, err := renderTable(r)
			if err != nil {
				// Cells must degrade, never fail, under injected I/O faults.
				return fail(round, "chaosfs pass failed instead of degrading: %v", err)
			}
			if got != golden {
				return fail(round, "chaosfs pass diverged from golden:\n%s\nvs\n%s", got, golden)
			}
			rep.addRunnerCounters(r)
			rep.FSFaultsInjected += uint64(chaos.Counts().Total())
			logf("round %d: chaosfs pass survived %d injected faults", round, chaos.Counts().Total())
		}

		// Recovery: scrub, re-run, compare bytes, check invariants.
		store, err := trace.OpenStore(trace.OS, dir, trace.VerifyOpen)
		if err != nil {
			return fail(round, "recovery open: %v", err)
		}
		sr := store.Report
		store.Close()
		rep.TempsRemoved += sr.TempsRemoved
		rep.Quarantined += sr.Quarantined
		rep.Unreadable += sr.Unreadable
		if sr.Quarantined != wantQuarantined {
			return fail(round, "scrub quarantined %d captures, injected %d corruptions", sr.Quarantined, wantQuarantined)
		}
		if sr.Unreadable != 0 {
			return fail(round, "scrub left %d unreadable captures on a healthy disk", sr.Unreadable)
		}
		rec := soakRunner(cfg.Scale, dir, nil)
		got, err := renderTable(rec)
		if err != nil {
			return fail(round, "recovery pass: %v", err)
		}
		if got != golden {
			return fail(round, "recovery pass diverged from golden:\n%s\nvs\n%s", got, golden)
		}
		rep.addRunnerCounters(rec)

		// No orphaned temps outside the janitor's reach, and a second scrub
		// finds nothing left to condemn — no quarantine loop.
		ents, err := os.ReadDir(dir)
		if err != nil {
			return fail(round, "list dir: %v", err)
		}
		for _, e := range ents {
			if strings.Contains(e.Name(), ".tmp-") {
				return fail(round, "orphan temp survived recovery: %s", e.Name())
			}
		}
		check, err := trace.OpenStore(trace.OS, dir, trace.VerifyOpen)
		if err != nil {
			return fail(round, "post-recovery open: %v", err)
		}
		cr := check.Report
		check.Close()
		if cr.Quarantined != 0 || cr.TempsRemoved != 0 {
			return fail(round, "post-recovery scrub still condemned files (quarantined %d, temps %d): quarantine loop",
				cr.Quarantined, cr.TempsRemoved)
		}
		if err := settleGoroutines(rep.Goroutines); err != nil {
			return fail(round, "round %d: %v", round, err)
		}
		logf("round %d: healed (table byte-identical, %d quarantined, %d temps swept)",
			round, sr.Quarantined, sr.TempsRemoved)
	}

	// Final paranoid pass: fully decode every survivor.
	final, err := trace.OpenStore(trace.OS, dir, trace.VerifyFull)
	if err != nil {
		return fail(cfg.Rounds, "final full scrub: %v", err)
	}
	fr := final.Report
	final.Close()
	if fr.Quarantined != 0 || fr.Unreadable != 0 {
		return fail(cfg.Rounds, "final full scrub condemned %d captures (%d unreadable) after recovery",
			fr.Quarantined, fr.Unreadable)
	}
	rep.ByteIdentical = true
	rep.DurationMS = time.Since(start).Milliseconds()
	return rep, nil
}
