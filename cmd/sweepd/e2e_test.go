package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// e2eCells is the job grid the end-to-end test pushes through a real sweepd
// process: one benchmark, every per-cell kind.
var e2eCells = []map[string]interface{}{
	{"kind": "baseline-timing", "bench": "kmeans"},
	{"kind": "split-error", "bench": "kmeans", "m": 14, "frac": 0.25},
	{"kind": "split-timing", "bench": "kmeans", "m": 14, "frac": 0.25},
	{"kind": "split-error", "bench": "kmeans", "m": 10, "frac": 0.5},
	{"kind": "uni-error", "bench": "kmeans", "m": 14, "frac": 0.5},
	{"kind": "fault-error", "bench": "kmeans", "org": "doppel", "rate": 1e-4},
	{"kind": "quality-error", "bench": "kmeans", "org": "doppel", "rate": 1e-4},
	{"kind": "quality-timing", "bench": "kmeans", "org": "doppel", "rate": 1e-4, "guarded": true},
}

// sweepdProc is one running sweepd under test: its process, resolved address
// and exit channel.
type sweepdProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// buildSweepd builds the binary into dir.
func buildSweepd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "sweepd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// startSweepd launches the built binary on an ephemeral port and scrapes the
// resolved address from the listening line.
func startSweepd(t *testing.T, bin string, extra ...string) *sweepdProc {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-scale", "0.02", "-only", "kmeans", "-quiet",
		"-seed", "5", "-quality-seed", "7",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	addrC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "sweepd: listening on "); ok {
				addrC <- rest
			}
		}
	}()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case addr := <-addrC:
		return &sweepdProc{cmd: cmd, addr: addr, done: done}
	case err := <-done:
		t.Fatalf("sweepd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("sweepd never printed its listening line")
	}
	return nil
}

// terminate sends SIGTERM and requires a clean (exit 0) drain.
func (p *sweepdProc) terminate(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		if err != nil {
			t.Fatalf("sweepd exited %v after SIGTERM, want 0", err)
		}
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		t.Fatal("sweepd did not exit within 60s of SIGTERM")
	}
}

// submit POSTs one cell and returns (key, payload bytes). Non-200 responses
// come back as errors carrying the status and body.
func (p *sweepdProc) submit(cell map[string]interface{}) (string, []byte, error) {
	body, err := json.Marshal(cell)
	if err != nil {
		return "", nil, err
	}
	resp, err := http.Post("http://"+p.addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var res struct {
		Key     string          `json:"key"`
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return "", nil, err
	}
	return res.Key, res.Payload, nil
}

// TestDrainResumeByteIdentical is the end-to-end graceful-shutdown proof: a
// sweepd SIGTERMed mid-load must exit 0 with completed results checkpointed
// and pending cells snapshotted to the state file, and a -resume server over
// those files must answer every cell byte-identically to a server that was
// never interrupted.
func TestDrainResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs simulations")
	}
	if runtime.GOOS == "windows" {
		t.Skip("relies on SIGTERM delivery")
	}
	dir := t.TempDir()
	bin := buildSweepd(t, dir)

	// Reference: every cell through an uninterrupted server.
	want := map[string][]byte{}
	ref := startSweepd(t, bin)
	for _, cell := range e2eCells {
		key, payload, err := ref.submit(cell)
		if err != nil {
			t.Fatalf("reference submit %v: %v", cell, err)
		}
		want[key] = payload
	}
	ref.terminate(t)

	// Interrupted run: fire the whole grid concurrently, SIGTERM as soon as
	// the first response lands (the rest are still waiting for a run slot or
	// computing). A short drain timeout forces a real snapshot of the
	// stragglers instead of waiting them out.
	cp := filepath.Join(dir, "cp.jsonl")
	state := filepath.Join(dir, "state.json")
	victim := startSweepd(t, bin, "-checkpoint", cp, "-state", state, "-drain-timeout", "50ms")
	first := make(chan struct{})
	var firstOnce sync.Once
	var wg sync.WaitGroup
	for _, cell := range e2eCells {
		wg.Add(1)
		go func(cell map[string]interface{}) {
			defer wg.Done()
			// Errors are expected here: drain aborts stragglers (5xx) — their
			// cells are in the state file, which is the point.
			if _, _, err := victim.submit(cell); err == nil {
				firstOnce.Do(func() { close(first) })
			}
		}(cell)
	}
	select {
	case <-first:
	case <-time.After(60 * time.Second):
		t.Fatal("no submission completed within 60s")
	}
	victim.cmd.Process.Signal(syscall.SIGTERM)
	wg.Wait()
	select {
	case err := <-victim.done:
		if err != nil {
			t.Fatalf("interrupted sweepd exited %v, want 0 (graceful drain)", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("interrupted sweepd did not exit")
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("drain wrote no state file: %v", err)
	}
	if fi, err := os.Stat(cp); err != nil || fi.Size() == 0 {
		t.Fatalf("drain flushed no checkpoint: %v", err)
	}
	var snapshot struct {
		Pending []json.RawMessage `json:"pending"`
	}
	if b, err := os.ReadFile(state); err != nil || json.Unmarshal(b, &snapshot) != nil {
		t.Fatalf("state file unreadable: %v", err)
	}
	t.Logf("drained with %d pending cell(s) snapshotted", len(snapshot.Pending))

	// Resume: the server primes from the checkpoint and re-submits the
	// snapshotted cells itself; every cell must answer with the reference
	// run's exact bytes.
	res := startSweepd(t, bin, "-checkpoint", cp, "-state", state, "-resume")
	for _, cell := range e2eCells {
		key, payload, err := res.submit(cell)
		if err != nil {
			t.Fatalf("resumed submit %v: %v", cell, err)
		}
		if !bytes.Equal(payload, want[key]) {
			t.Fatalf("cell %s: resumed payload diverged\n  reference: %s\n  resumed:   %s", key, want[key], payload)
		}
	}
	res.terminate(t)
}

// TestValidateOptions covers the flag guards unique to sweepd.
func TestValidateOptions(t *testing.T) {
	good := sweepdOptions{
		Scale: 0.1, Cores: 4, MaxQueue: 128,
		AdmitRate: 100, AdmitBurst: 10, JobTimeout: time.Minute,
		DrainTimeout:  time.Second,
		QualityBudget: 0.05, CanaryRate: 0.05,
	}
	if err := validateOptions(good); err != nil {
		t.Fatalf("good options rejected: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*sweepdOptions)
		want   string
	}{
		{"scale", func(o *sweepdOptions) { o.Scale = 0 }, "-scale"},
		{"job timeout", func(o *sweepdOptions) { o.JobTimeout = 0 }, "-job-timeout"},
		{"drain timeout", func(o *sweepdOptions) { o.DrainTimeout = -time.Second }, "-drain-timeout"},
		{"canary", func(o *sweepdOptions) { o.CanaryRate = 1.5 }, "-canary-rate"},
		{"trace replay without dir", func(o *sweepdOptions) { o.TraceReplay = true }, "-trace-dir"},
		{"bad trace verify", func(o *sweepdOptions) { o.TraceVerify = "sometimes" }, "-trace-verify"},
		{"resume without files", func(o *sweepdOptions) { o.Resume = true }, "-resume"},
	}
	for _, tc := range bad {
		o := good
		tc.mutate(&o)
		err := validateOptions(o)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if !errors.Is(func() error { o := good; o.Resume = true; return validateOptions(o) }(), errResumeNeedsFile) {
		t.Error("resume without files: wrong error identity")
	}
}

// TestDrainStateWriteFailureExits1: a drain whose state file cannot be
// written has lost track of its pending cells, so sweepd must say so and
// exit 1, not report a snapshot it never made and exit 0.
func TestDrainStateWriteFailureExits1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	if runtime.GOOS == "windows" {
		t.Skip("relies on SIGTERM delivery")
	}
	dir := t.TempDir()
	state := filepath.Join(dir, "missing", "state.json")
	p := startSweepd(t, buildSweepd(t, dir), "-state", state)
	// An answered request means sweepd is serving, so its drain handler is
	// installed.
	resp, err := http.Get("http://" + p.addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("sweepd exited %v after failing to write %s, want exit status 1", err, state)
		}
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		t.Fatal("sweepd did not exit within 60s of SIGTERM")
	}
}

// TestDrainReport pins where the drain log says pending cells went.
func TestDrainReport(t *testing.T) {
	cases := []struct {
		left  int
		state string
		err   error
		want  string
		ok    bool
	}{
		{0, "s.json", nil, "all in-flight jobs completed", true},
		{2, "s.json", nil, "2 cell(s) still pending, snapshotted to s.json", true},
		{2, "", nil, "2 cell(s) still pending, dropped (no -state file)", true},
		{2, "s.json", errors.New("disk full"), "state file not written, 2 pending cell(s) lost: disk full", false},
	}
	for _, tc := range cases {
		msg, ok := drainReport(tc.left, tc.state, tc.err)
		if !strings.Contains(msg, tc.want) || ok != tc.ok {
			t.Errorf("drainReport(%d, %q, %v) = %q, %v; want %q, %v", tc.left, tc.state, tc.err, msg, ok, tc.want, tc.ok)
		}
	}
}
