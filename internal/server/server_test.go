package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"doppelganger/internal/metrics"
	"doppelganger/internal/sweep"
)

// testConfig is a small, fast server: one benchmark, tiny scale.
func testConfig() Config {
	return Config{
		Scale:        0.02,
		Only:         []string{"kmeans"},
		JobTimeout:   60 * time.Second,
		DrainTimeout: 50 * time.Millisecond,
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestSubmitMemoizesAndMatchesSerial proves the service core: a cell
// computes once, resubmissions are cache hits, and the payload is
// bit-identical to the same cell computed on a plain serial runner.
func TestSubmitMemoizesAndMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := mustServer(t, testConfig())
	cell := Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}

	res, err := s.Submit(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("first submission reported cached")
	}
	if checksum(res.Payload) != res.Sum {
		t.Fatal("fresh result fails its own checksum")
	}

	again, err := s.Submit(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("resubmission was not served from the memo")
	}
	if !bytes.Equal(res.Payload, again.Payload) {
		t.Fatal("cached payload differs from the computed one")
	}
	if n := s.Computes(); n != 1 {
		t.Fatalf("Computes() = %d, want 1", n)
	}

	serial := sweep.NewRunner(0.02)
	serial.Only = []string{"kmeans"}
	want, err := executeCell(context.Background(), serial, cell)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, want) {
		t.Fatalf("server payload differs from serial runner:\n  server: %s\n  serial: %s", res.Payload, want)
	}
}

// TestRunnersKeepNoTaskSnapshots: sweepd serves only the aggregate
// registry, so its runner keeps no per-task snapshots after serving cells,
// and every simulation instrument /metrics serves equals that of a runner
// that computed the same cells and kept its snapshots.
func TestRunnersKeepNoTaskSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := testConfig()
	s := mustServer(t, cfg)
	ref := sweep.NewRunner(cfg.Scale)
	ref.Only = cfg.Only
	ref.Metrics = metrics.NewRegistry()
	ref.TaskMetrics = true
	for _, c := range []Cell{
		{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25},
		{Kind: "split-timing", Bench: "kmeans", M: 14, Frac: 0.25},
		{Kind: "uni-timing", Bench: "kmeans", M: 14, Frac: 0.5},
	} {
		if _, err := s.Submit(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		if _, err := executeCell(context.Background(), ref, c); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.runner.TaskSnapshots()); n != 0 {
		t.Errorf("the server's runner kept %d task snapshots", n)
	}
	if len(ref.TaskSnapshots()) == 0 {
		t.Fatal("the reference runner kept no task snapshots")
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	served := map[string]metrics.Sample{}
	for dec := json.NewDecoder(resp.Body); dec.More(); {
		var line struct {
			Task string `json:"task"`
			metrics.Sample
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		served[line.Name] = line.Sample
	}
	sim := 0
	for _, want := range ref.Metrics.Snapshot() {
		if !strings.HasPrefix(want.Name, "funcsim.") && !strings.HasPrefix(want.Name, "cache.") &&
			!strings.HasPrefix(want.Name, "core.") && !strings.HasPrefix(want.Name, "coherence.") &&
			!strings.HasPrefix(want.Name, "timesim.") {
			continue
		}
		sim++
		if got := served[want.Name]; !reflect.DeepEqual(got, want) {
			t.Errorf("/metrics %s = %+v, reference %+v", want.Name, got, want)
		}
	}
	if sim == 0 {
		t.Fatal("the reference registry holds no simulation instruments")
	}
}

// TestSubmitValidates maps bad cells to ErrBadCell without accepting them.
func TestSubmitValidates(t *testing.T) {
	s := mustServer(t, testConfig())
	_, err := s.Submit(context.Background(), Cell{Kind: "split-error", Bench: "nope", M: 14, Frac: 0.25})
	if !errors.Is(err, ErrBadCell) {
		t.Fatalf("err = %v, want ErrBadCell", err)
	}
	if s.m.accepted.Value() != 0 {
		t.Fatal("invalid cell was accepted")
	}
}

// TestQueueSheds verifies the queue budget: with its one slot held by a
// compute, a cell that misses the memo sheds with 429 instead of piling
// up, while a resubmission of an already-computed cell is served from the
// memo, which takes no slot.
func TestQueueSheds(t *testing.T) {
	cfg := testConfig()
	cfg.MaxQueue = 1
	s := mustServer(t, cfg)
	computed := Cell{Kind: "baseline-timing", Bench: "kmeans"}
	if _, err := s.Submit(context.Background(), computed); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	s.beforeCompute = func(string) { <-block }
	defer close(block)

	go s.Submit(context.Background(), Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25})
	waitQueued(t, s)

	_, err := s.Submit(context.Background(), Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.5})
	var overload *OverloadError
	if !errors.As(err, &overload) || !strings.Contains(err.Error(), "queue budget") {
		t.Fatalf("err = %v, want the queue budget's OverloadError", err)
	}

	res, err := s.Submit(context.Background(), computed)
	if err != nil {
		t.Fatalf("resubmitting a computed cell with the queue full: %v", err)
	}
	if !res.Cached {
		t.Fatal("resubmission of a computed cell was not served from the memo")
	}
}

// waitQueued waits until a compute holds one of s's queue slots.
func waitQueued(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the compute never took a queue slot")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainCancelsStraggler starts a job that outlives the drain window:
// Drain reports it as the one submission it cancelled, the straggler fails
// with the cancellation, and every later submission is refused.
func TestDrainCancelsStraggler(t *testing.T) {
	s := mustServer(t, testConfig())
	release := make(chan struct{})
	s.beforeCompute = func(string) {
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
	}

	cell := Cell{Kind: "baseline-timing", Bench: "kmeans"}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), cell)
		errc <- err
	}()
	waitQueued(t, s)

	if n := s.Drain(context.Background()); n != 1 {
		t.Fatalf("Drain cancelled %d submissions, want the straggler", n)
	}
	close(release)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("straggler err = %v, want context.Canceled", err)
	}
	if _, err := s.Submit(context.Background(), cell); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
	if n := s.Drain(context.Background()); n != 0 {
		t.Fatalf("a second Drain cancelled %d submissions, want 0", n)
	}
}

// TestCheckpointResumeSimulatesNothing: the checkpoint is the server's one
// resume record. A server over a fresh checkpoint computes one cell of
// each kind the checkpoint records; a second server resumed from the same
// file answers every one byte-identically without simulating anything.
func TestCheckpointResumeSimulatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cells := []Cell{
		{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25},
		{Kind: "split-timing", Bench: "kmeans", M: 14, Frac: 0.25},
		{Kind: "uni-error", Bench: "kmeans", M: 14, Frac: 0.5},
		{Kind: "uni-timing", Bench: "kmeans", M: 14, Frac: 0.5},
		{Kind: "fault-error", Bench: "kmeans", Org: "doppel", Rate: 1e-4},
		{Kind: "quality-error", Bench: "kmeans", Org: "doppel", Rate: 1e-4},
		{Kind: "quality-timing", Bench: "kmeans", Org: "doppel", Rate: 1e-4, Guarded: true},
	}
	serve := func(resume bool) ([][]byte, *metrics.Registry) {
		cp, err := sweep.OpenCheckpoint(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Checkpoint = cp
		cfg.Metrics = metrics.NewRegistry()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var payloads [][]byte
		for _, c := range cells {
			res, err := s.Submit(context.Background(), c)
			if err != nil {
				t.Fatalf("%s (resume %v): %v", c.Key(), resume, err)
			}
			payloads = append(payloads, res.Payload)
		}
		s.Close()
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
		return payloads, cfg.Metrics
	}

	want, first := serve(false)
	if first.CounterValue("funcsim.loads") == 0 || first.CounterValue("timesim.instructions") == 0 {
		t.Fatal("the first server simulated nothing")
	}
	got, resumed := serve(true)
	for i, c := range cells {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: resumed payload diverged\n  first:   %s\n  resumed: %s", c.Key(), want[i], got[i])
		}
	}
	for _, name := range []string{"funcsim.loads", "timesim.instructions"} {
		if v := resumed.CounterValue(name); v != 0 {
			t.Errorf("the resumed server simulated: %s = %d, want 0", name, v)
		}
	}
}

// TestHTTPEndpoints exercises the wire: submit round-trip, health, metrics,
// stats, and the error mappings (400 bad cell, 429 with Retry-After when
// the one queue slot is held, 503 when draining).
func TestHTTPEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := testConfig()
	cfg.MaxQueue = 1
	s := mustServer(t, cfg)
	held := Cell{Kind: "baseline-timing", Bench: "kmeans"}
	release := make(chan struct{})
	s.beforeCompute = func(key string) {
		if key == held.Key() {
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(`{"kind":"split-error","bench":"kmeans","m":14,"frac":0.25}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Key != "split/kmeans/14/0.25/error" || checksum(res.Payload) != res.Sum {
		t.Fatalf("bad result envelope: %+v", res)
	}

	if resp = post(`{"kind":"split-error","bench":"nope","m":14,"frac":0.25}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid bench status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	if resp = post(`{"kind":"split-error","bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Hold the one queue slot with a compute, then expect 429 +
	// Retry-After for a cell that misses the memo.
	heldErr := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), held)
		heldErr <- err
	}()
	waitQueued(t, s)
	resp = post(`{"kind":"split-error","bench":"kmeans","m":14,"frac":0.5}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
	close(release)
	if err := <-heldErr; err != nil {
		t.Fatalf("the compute holding the slot: %v", err)
	}

	for _, path := range []string{"/healthz", "/readyz", "/v1/stats", "/metrics"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, r.StatusCode)
		}
		r.Body.Close()
	}

	if n := s.Drain(context.Background()); n != 0 {
		t.Fatalf("Drain cancelled %d submissions with none in flight", n)
	}
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", r.StatusCode)
	}
	r.Body.Close()
	resp = post(`{"kind":"split-error","bench":"kmeans","m":14,"frac":0.25}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}
