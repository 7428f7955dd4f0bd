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
	"sync"
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

// TestAdmissionSheds verifies the token bucket refuses with a positive
// Retry-After once the burst is spent.
func TestAdmissionSheds(t *testing.T) {
	cfg := testConfig()
	cfg.AdmitRate = 0.0001 // effectively no refill during the test
	cfg.AdmitBurst = 2
	s := mustServer(t, cfg)
	cell := Cell{Kind: "baseline-timing", Bench: "kmeans"}

	// Spend the burst without computing: drain tokens via shed-free
	// cache-miss path is expensive, so spend them on invalid... no —
	// admission runs after validation. Submit the same cell twice
	// concurrently so both draw tokens but share one compute.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), cell); err != nil {
				t.Errorf("burst submission failed: %v", err)
			}
		}()
	}
	wg.Wait()

	_, err := s.Submit(context.Background(), cell)
	var overload *OverloadError
	if !errors.As(err, &overload) {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if overload.RetryAfter <= 0 {
		t.Fatalf("Retry-After = %v, want positive", overload.RetryAfter)
	}
	if s.m.shedRate.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.m.shedRate.Value())
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

	go s.SubmitLocal(context.Background(), Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25})
	// Wait until the compute holds the slot so depth is visible.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the compute never took a queue slot")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := s.Submit(context.Background(), Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.5})
	var overload *OverloadError
	if !errors.As(err, &overload) || !strings.Contains(overload.Reason, "queue") {
		t.Fatalf("err = %v, want queue-depth OverloadError", err)
	}

	res, err := s.Submit(context.Background(), computed)
	if err != nil {
		t.Fatalf("resubmitting a computed cell with the queue full: %v", err)
	}
	if !res.Cached {
		t.Fatal("resubmission of a computed cell was not served from the memo")
	}
}

// TestDrainSnapshotsPending starts a job that outlives the drain window and
// verifies Drain writes its cell to the state file, which LoadState round-
// trips; the straggler is then aborted so the server can exit.
func TestDrainSnapshotsPending(t *testing.T) {
	cfg := testConfig()
	cfg.StatePath = filepath.Join(t.TempDir(), "state.json")
	s := mustServer(t, cfg)
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
		_, err := s.SubmitLocal(context.Background(), cell)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.pendingCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never became pending")
		}
		time.Sleep(time.Millisecond)
	}

	left, err := s.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0] != cell {
		t.Fatalf("drain left %+v, want the hanging cell", left)
	}
	loaded, err := LoadState(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0] != cell {
		t.Fatalf("state file round-trip = %+v, want %+v", loaded, cell)
	}
	close(release)
	if err := <-errc; err == nil {
		t.Fatal("aborted straggler reported success")
	}
	// Once draining, new submissions are refused for good.
	if _, err := s.Submit(context.Background(), cell); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
}

// TestHTTPEndpoints exercises the wire: submit round-trip, health, metrics,
// stats, and the error mappings (400 bad cell, 429 with Retry-After, 503
// when draining).
func TestHTTPEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := testConfig()
	cfg.AdmitBurst = 2
	cfg.AdmitRate = 0.0001
	s := mustServer(t, cfg)
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

	// Burn the remaining token, then expect 429 + Retry-After.
	post(`{"kind":"split-error","bench":"kmeans","m":14,"frac":0.25}`).Body.Close()
	resp = post(`{"kind":"split-error","bench":"kmeans","m":14,"frac":0.25}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()

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

	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
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
