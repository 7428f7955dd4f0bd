package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doppelganger/internal/trace"
)

// TestServerScrubsTraceDirAtStartup proves the server runs the startup
// janitor before accepting work: a damaged capture and an orphaned temp
// planted in the trace directory are gone by the time New returns, the
// scrub's counts surface in /v1/stats, and the directory lock is released
// by Close (a second server can scrub again).
func TestServerScrubsTraceDirAtStartup(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.dgt"), []byte("definitely not a capture"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "w.dgt.tmp-9"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.TraceDir = dir
	cfg.TraceVerify = trace.VerifyOpen
	cfg.Log = nil
	s := mustServer(t, cfg)

	st := s.Stats()
	if st.TraceScrub == nil {
		t.Fatal("stats carry no scrub report")
	}
	if st.TraceScrub.Quarantined != 1 || st.TraceScrub.TempsRemoved != 1 {
		t.Fatalf("scrub report %+v, want 1 quarantined / 1 temp removed", *st.TraceScrub)
	}
	if st.TraceQuarantined == 0 {
		t.Error("scrub quarantines not folded into the stats counter")
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.dgt")); !os.IsNotExist(err) {
		t.Error("damaged capture still present after startup")
	}
	if _, err := os.Stat(filepath.Join(dir, trace.QuarantineDir, "bad.dgt")); err != nil {
		t.Errorf("damaged capture not quarantined: %v", err)
	}

	// The report also renders over HTTP.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var got Stats
	if err := json.NewDecoder(rec.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.TraceScrub == nil || got.TraceScrub.Quarantined != 1 {
		t.Errorf("/v1/stats scrub report = %+v", got.TraceScrub)
	}

	// While the server lives, a second opener must skip the scrub (shared
	// directory); after Close the lock is free again.
	other, err := trace.OpenStore(trace.OS, dir, trace.VerifyOpen)
	if err != nil {
		t.Fatal(err)
	}
	if !other.Report.Skipped {
		t.Error("second opener scrubbed a directory the live server holds")
	}
	other.Close()
}

// TestServerTraceDirUnusable pins the fatal path: a server asked to use a
// trace directory it cannot create must fail loudly at New, naming the
// directory — not limp along silently without the cache it was asked for.
func TestServerTraceDirUnusable(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.TraceDir = filepath.Join(blocker, "traces")
	cfg.Log = nil
	s, err := New(cfg)
	if err == nil {
		s.Close()
		t.Fatal("server started over an uncreatable trace dir")
	}
	if !strings.Contains(err.Error(), "traces") {
		t.Errorf("error does not name the directory: %v", err)
	}
}

// TestServerTraceRoundTrip drives one cell through a trace-dir-backed
// server twice across restarts: the second server replays the first's
// capture bit-identically and reports the replay in its stats. Within the
// first server, resubmitting the cell after its captures are recorded is a
// memo hit: the memo key comes from the cell alone, not from the directory.
func TestServerTraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cell := Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}

	cfg := testConfig()
	cfg.TraceDir = dir
	cfg.TraceVerify = trace.VerifyOpen
	cfg.Log = nil

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := first.Submit(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if n := first.Stats().TraceRecords; n == 0 {
		t.Error("first server recorded no captures")
	}
	again, err := first.Submit(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || first.Computes() != 1 {
		t.Errorf("resubmission after recording: cached %v, %d computes; want a memo hit and 1 compute", again.Cached, first.Computes())
	}
	first.Close()

	second := mustServer(t, cfg)
	res2, err := second.Submit(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if string(res1.Payload) != string(res2.Payload) {
		t.Fatalf("replayed payload diverged:\n%s\nvs\n%s", res1.Payload, res2.Payload)
	}
	st := second.Stats()
	if st.TraceReplays == 0 {
		t.Error("second server replayed nothing")
	}
	if st.TraceScrub == nil || st.TraceScrub.Verified == 0 {
		t.Errorf("second server's scrub verified nothing: %+v", st.TraceScrub)
	}
}

// TestFailedCellRefusesNoOther: a cell that fails — here an unrecorded cell
// on a trace-replay server — fails alone. A deterministic cell fails the
// same way on any retry, so nothing is retried and nothing is quarantined:
// the recorded cell submitted right after it is served at once,
// bit-identical to the recording server's payload, and the server stays
// ready throughout.
func TestFailedCellRefusesNoOther(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	recorded := Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}
	cfg := testConfig()
	cfg.TraceDir = t.TempDir()
	cfg.Log = nil

	recorder, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := recorder.Submit(context.Background(), recorded)
	recorder.Close()
	if err != nil {
		t.Fatal(err)
	}

	cfg.TraceReplay = true
	s := mustServer(t, cfg)
	if !s.Ready() {
		t.Fatal("replay server not ready at start")
	}
	_, err = s.Submit(context.Background(), Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.5})
	if err == nil || !strings.Contains(err.Error(), "-trace-replay: no usable capture") {
		t.Fatalf("unrecorded cell: err = %v, want a -trace-replay refusal", err)
	}
	if !s.Ready() {
		t.Fatal("one failed cell made the server unready")
	}
	got, err := s.Submit(context.Background(), recorded)
	if err != nil {
		t.Fatalf("recorded cell after a failed one: %v", err)
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("replayed payload diverged:\n%s\nvs\n%s", got.Payload, want.Payload)
	}
	if !s.Ready() {
		t.Fatal("server unready after serving the recorded cell")
	}
}
