// Command perfbench is the repository's end-to-end benchmark. It drives the
// shipped CLIs (cmd/experiments, cmd/sweepd) as a user would, checks every
// output they produce, and prints one JSON result line. perfbench/run.sh
// builds it and the CLIs from the checkout, then runs it:
//
//	bash perfbench/run.sh --workload regen-cold --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md gives the reasons and the layer table):
//
//	regen-cold  experiments -scale 0.05 -quiet all, no trace directory
//	serve-warm  sweepd over a recorded trace directory, driven by a seeded
//	            closed-loop stream of single-cell jobs
//
// With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it carries the per-layer metrics of one traced run, which
// drives the layers' public functions in this process (traced.go, grid.go).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// goldenPath is the scale-0.05 table set every regeneration must reproduce
// byte for byte.
const goldenPath = "internal/sweep/testdata/golden_scale005_full.txt"

// scale is the workload scale every workload runs at: the one the golden
// tables were recorded at.
const scale = 0.05

// scaleArg is scale as the CLIs' -scale flag takes it.
var scaleArg = strconv.FormatFloat(scale, 'g', -1, 64)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one invocation shares across its phases.
type run struct {
	root    string        // checkout root
	bin     string        // directory holding the built CLIs
	work    string        // this invocation's scratch directory
	seed    int64         // workload seed
	seconds time.Duration // timed-phase length
	golden  []byte

	attempted, failed int
	metrics           map[string]metric
}

// fail counts n of the operations already attempted as failed and prints
// why.
func (r *run) fail(n int, format string, args ...interface{}) {
	r.failed += n
	fmt.Printf("FAIL: "+format+"\n", args...)
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// workloadRuns maps each workload to its untraced (timed) and traced runs.
var workloadRuns = map[string]struct{ timed, traced func(*run) error }{
	"regen-cold": {(*run).regenTimed, (*run).regenTraced},
	"serve-warm": {(*run).serveTimed, (*run).serveTraced},
}

func main() {
	root := flag.String("root", ".", "checkout root (holds the golden tables)")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built experiments and sweepd")
	workload := flag.String("workload", "", "regen-cold or serve-warm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "timed-phase length")
	traced := flag.Int("trace", 0, "1: one traced run reporting per-layer metrics instead of the timed run")
	digestsOut := flag.String("write-payload-digests", "", "record every stream cell's payload once, write their digests to this file and exit")
	flag.Parse()

	w, ok := workloadRuns[*workload]
	if (!ok && *digestsOut == "") || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload regen-cold|serve-warm, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	r, err := newRun(*root, *bin, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	body := w.timed
	switch {
	case *digestsOut != "":
		body = func(r *run) error { return r.writePayloadDigests(*digestsOut) }
	case *traced == 1:
		body = w.traced
	}
	err = body(r)
	if rmErr := os.RemoveAll(r.work); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if *digestsOut != "" {
		return
	}
	if err := r.report(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

// newRun reads the golden tables and makes the invocation's scratch
// directory under .bench_build in the checkout.
func newRun(root, bin string, seed int64, seconds time.Duration) (*run, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if bin, err = filepath.Abs(bin); err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(filepath.Join(absRoot, goldenPath))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(absRoot, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	return &run{root: absRoot, bin: bin, work: work, seed: seed, seconds: seconds,
		golden: golden, metrics: map[string]metric{}}, nil
}

// report prints every metric by name with its unit, the failure ratio, and
// the result line last. A run with a wrong output exits non-zero after
// printing its result.
func (r *run) report() error {
	if r.attempted < 1 {
		return fmt.Errorf("attempted nothing")
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Printf("failed_ratio %d/%d = %.4g\n", r.failed, r.attempted, float64(r.failed)/float64(r.attempted))
	line, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		os.Exit(1)
	}
	return nil
}

// usage is what one finished CLI invocation cost, from the kernel's own
// accounting for the process.
type usage struct {
	wall   float64 // seconds
	cpu    float64 // user+system seconds; stolen time is charged to no task
	rssMB  float64 // peak resident set
	steal  float64 // host-wide steal seconds while it ran
	stdout []byte
}

func (u usage) String() string {
	return fmt.Sprintf("wall %.3f s, cpu %.3f s, peak rss %.1f MB, host steal %.2f s", u.wall, u.cpu, u.rssMB, u.steal)
}

// command prepares one CLI invocation. The child runs in the scratch
// directory and dies with the benchmark if the benchmark is killed.
func (r *run) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(r.bin, name), args...)
	cmd.Dir = r.work
	cmd.Env = append(os.Environ(), "TMPDIR="+r.work)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// invoke runs one CLI invocation to completion. Its CPU time and peak RSS
// come from wait4's rusage: the same utime/stime and VmHWM the kernel keeps
// in /proc/<pid>, read at exit with microsecond resolution.
func (r *run) invoke(stderr io.Writer, name string, args ...string) (usage, error) {
	var out bytes.Buffer
	cmd := r.command(name, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	steal0, _ := stealSeconds()
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	steal1, _ := stealSeconds()
	if err != nil {
		return usage{}, fmt.Errorf("%s %v: %w", name, args, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}, fmt.Errorf("%s: no rusage", name)
	}
	return usage{
		wall:   wall,
		cpu:    tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		rssMB:  float64(ru.Maxrss) / 1024,
		steal:  steal1 - steal0,
		stdout: out.Bytes(),
	}, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// repeat runs fn until the timed phase is spent, and at least atLeast times.
func (r *run) repeat(atLeast int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < r.seconds; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// setMedians reports the median of each per-iteration series.
func (r *run) setMedians(walls, cpus, rss, jobsPerS []float64) {
	r.set("wall_s", median(walls), "s")
	r.set("cpu_s", median(cpus), "s")
	r.set("peak_rss_mb", median(rss), "MB")
	r.set("jobs_per_s", median(jobsPerS), "jobs/s")
}
