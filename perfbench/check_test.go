package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doppelganger/internal/server"
)

// TestGoldenComparison checks that a regeneration counts all its cells as
// attempted, and all of them as failed unless its tables are byte-identical
// to the golden set.
func TestGoldenComparison(t *testing.T) {
	r := &run{golden: []byte("== Table 2 ==\nkmeans  12.5%\n")}
	r.checkTables("same", []byte("== Table 2 ==\nkmeans  12.5%\n"))
	if r.attempted != gridCells || r.failed != 0 {
		t.Fatalf("identical tables: attempted %d failed %d", r.attempted, r.failed)
	}
	for _, out := range []string{
		"== Table 2 ==\nkmeans  12.6%\n", // one digit
		"== Table 2 ==\nkmeans  12.5%",   // missing final newline
		"",
	} {
		r := &run{golden: []byte("== Table 2 ==\nkmeans  12.5%\n")}
		r.checkTables("different", []byte(out))
		if r.attempted != gridCells || r.failed != gridCells {
			t.Errorf("tables %q: attempted %d failed %d, want all %d failed", out, r.attempted, r.failed, gridCells)
		}
	}
}

func TestPayloadCheck(t *testing.T) {
	job := server.Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}
	payload := json.RawMessage(`{"key":"split/kmeans/14/0.25/error","kind":"split-error","bits":4591870180066957722}`)
	pc := &payloadChecker{
		digests:  map[string]string{job.Key(): digest(payload)},
		recorded: map[string][]byte{},
	}
	ok := reply{job: job, status: http.StatusOK, resp: response{Key: job.Key(), Payload: payload}}
	if why := pc.check(ok); why != "" {
		t.Fatalf("matching reply rejected: %s", why)
	}
	pc.recorded[job.Key()] = payload

	other := json.RawMessage(`{"key":"split/kmeans/14/0.25/error","kind":"split-error","bits":4591870180066957723}`)
	for name, rep := range map[string]reply{
		"429":          {job: job, status: http.StatusTooManyRequests, err: errors.New("HTTP 429")},
		"error":        {job: job, err: errors.New("connection reset")},
		"wrong key":    {job: job, status: http.StatusOK, resp: response{Key: "split/kmeans/13/0.25/error", Payload: payload}},
		"wrong digest": {job: job, status: http.StatusOK, resp: response{Key: job.Key(), Payload: other}},
	} {
		if pc.check(rep) == "" {
			t.Errorf("%s: reply accepted", name)
		}
	}
	// A payload that matches the stored digest but not the recording pass's
	// bytes is wrong too: replay must repeat the live run exactly.
	pc.digests[job.Key()] = digest(other)
	if pc.check(reply{job: job, status: http.StatusOK, resp: response{Key: job.Key(), Payload: other}}) == "" {
		t.Error("payload differing from the recording pass accepted")
	}
}

func TestCounterTotals(t *testing.T) {
	jsonl := []byte(`{"task":"base/kmeans/func","name":"funcsim.loads","kind":"counter","value":5}
{"task":"total","name":"funcsim.loads","kind":"counter","value":9}
{"task":"total","name":"cache.l1.hits","kind":"counter"}
{"task":"total","name":"core.doppel.tags_occupied","kind":"gauge","level":3}
{"task":"total","name":"timesim.rob_occupancy","kind":"histogram","value":7,"sum":20,"buckets":[{"le":4,"count":7}]}
`)
	got, err := counterTotals(jsonl, "total")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"funcsim.loads": 9, "cache.l1.hits": 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("counterTotals = %v, want %v", got, want)
	}
	if d := diffTotals(want, map[string]uint64{"funcsim.loads": 9}); len(d) != 0 {
		t.Errorf("a zero counter the traced run never created counted as a difference: %v", d)
	}
	if d := diffTotals(want, map[string]uint64{"funcsim.loads": 8, "trace.replays": 1}); len(d) != 2 {
		t.Errorf("diffTotals found %v, want two differences", d)
	}
	if _, err := counterTotals([]byte("not json\n"), "total"); err == nil {
		t.Error("malformed metrics line accepted")
	}
}

func TestBatchLanes(t *testing.T) {
	log := []byte("[kmeans] batched guarded replay: 3 lanes over stream 00000000deadbeef\n" +
		"[jpeg] guarded functional run (doppel, rate 1e-05, budget 0.05)\n" +
		"[jpeg] batched guarded replay: 2 lanes over stream 0000000000000001\n")
	if got := batchLanes(log); got != 5 {
		t.Fatalf("batchLanes = %v, want 5", got)
	}
}

// stubSweepd answers every job with its key. A job's first submission
// takes a millisecond, or 50 ms for the slow cell. It records the most
// requests it ever had in flight, and every repeat that arrived before its
// first submission had been answered.
type stubSweepd struct {
	slow server.Cell

	inFlight, peak atomic.Int64
	mu             sync.Mutex
	seen, answered map[string]bool
	early          []string
}

func (s *stubSweepd) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	n := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	var c server.Cell
	if err := json.NewDecoder(req.Body).Decode(&c); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := c.Key()
	s.mu.Lock()
	first := !s.seen[key]
	s.seen[key] = true
	if !first && !s.answered[key] {
		s.early = append(s.early, key)
	}
	s.mu.Unlock()
	if first {
		delay := time.Millisecond
		if c == s.slow {
			delay = 50 * time.Millisecond
		}
		time.Sleep(delay)
		// The response is flushed when the handler returns, after this.
		defer func() {
			s.mu.Lock()
			s.answered[key] = true
			s.mu.Unlock()
		}()
	}
	json.NewEncoder(w).Encode(map[string]interface{}{"key": key, "payload": map[string]string{"key": key}})
}

func driveStub(t *testing.T, slow server.Cell, jobs []server.Cell) *stubSweepd {
	t.Helper()
	stub := &stubSweepd{slow: slow, seen: map[string]bool{}, answered: map[string]bool{}}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	replies := drive(strings.TrimPrefix(srv.URL, "http://"), jobs, 2)
	for i, rep := range replies {
		if rep.err != nil || rep.status != http.StatusOK {
			t.Fatalf("job %d: status %d, %v", i, rep.status, rep.err)
		}
		if rep.job != jobs[i] || rep.resp.Key != jobs[i].Key() {
			t.Fatalf("reply %d answers %q, want %q", i, rep.resp.Key, jobs[i].Key())
		}
	}
	return stub
}

// TestDriveClosedLoop checks the client loop against a stub server: every
// job is answered once, in its own slot, with never more requests in
// flight than connections, and no repeat is sent before its first
// submission has been answered.
func TestDriveClosedLoop(t *testing.T) {
	_, jobs, _ := passes(3, 1)
	stub := driveStub(t, server.Cell{}, jobs[0])
	if p := stub.peak.Load(); p > 2 {
		t.Errorf("%d requests in flight with 2 connections", p)
	}
	if len(stub.early) > 0 {
		t.Errorf("repeats sent before their first submission was answered: %v", stub.early)
	}
}

// TestDriveHoldsRepeats pins the hold on repeats where the stream's lag
// cannot help: while one connection waits on a slow first submission, the
// other finishes a fast job and takes the repeat next. Sent at once, the
// repeat would join the computation in flight and be reported as cached
// with a compute-sized latency.
func TestDriveHoldsRepeats(t *testing.T) {
	slow := server.Cell{Kind: "baseline-timing", Bench: "jpeg"}
	fast := server.Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}
	stub := driveStub(t, slow, []server.Cell{slow, fast, slow})
	if len(stub.early) > 0 {
		t.Errorf("repeats sent before their first submission was answered: %v", stub.early)
	}
}
