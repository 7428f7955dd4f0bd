package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doppelganger/internal/trace"
	"doppelganger/internal/workloads"
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

// TestServerDecodedCacheAndDigestRouting covers the shared decoded-capture
// layer above the trace store: cells route by benchmark until their capture
// exists, then by its digest; a warm restart replays through the decoded
// cache; and the cache's counters surface in /v1/stats and Stats().
func TestServerDecodedCacheAndDigestRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cell := Cell{Kind: "split-error", Bench: "kmeans", M: 14, Frac: 0.25}

	cfg := testConfig()
	cfg.TraceDir = dir
	cfg.TraceVerify = trace.VerifyOpen
	cfg.DecodedCacheMB = 64
	cfg.ReplayBatch = 8
	cfg.Log = nil

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cold directory: the capture isn't on disk, so routing falls back to
	// the benchmark key.
	if got := first.routeKey(cell); got != cell.RouteKey() {
		t.Errorf("cold routeKey = %q, want fallback %q", got, cell.RouteKey())
	}
	res1, err := first.Submit(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	// Recorded: the cell now routes by its capture's digest, and a cell
	// kind with no single capture keeps the fallback.
	if got := first.routeKey(cell); !strings.HasPrefix(got, "digest:") {
		t.Errorf("warm routeKey = %q, want digest-prefixed", got)
	}
	fig := Cell{Kind: "figure", Figure: "fig9"}
	if got := first.routeKey(fig); got != fig.RouteKey() {
		t.Errorf("figure routeKey = %q, want fallback %q", got, fig.RouteKey())
	}
	first.Close()

	second := mustServer(t, cfg)
	res2, err := second.Submit(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if string(res1.Payload) != string(res2.Payload) {
		t.Fatalf("decoded-cache replay diverged:\n%s\nvs\n%s", res1.Payload, res2.Payload)
	}
	st := second.Stats()
	if st.TraceReplays == 0 {
		t.Error("second server replayed nothing")
	}
	if st.DecodedCache == nil {
		t.Fatal("stats carry no decoded-cache snapshot")
	}
	// The split-error cell reads only its capture's output, so the shared
	// cache holds exactly one capture: the baseline the cell scored against.
	if st.DecodedCache.Entries != 1 || st.DecodedCache.Bytes == 0 {
		t.Errorf("decoded cache after a warm replay = %+v, want exactly the baseline capture", *st.DecodedCache)
	}

	// The snapshot also renders over HTTP, and the cache's counters are on
	// the shared registry for /metrics.
	rec := httptest.NewRecorder()
	second.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var got Stats
	if err := json.NewDecoder(rec.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.DecodedCache == nil || got.DecodedCache.Entries == 0 {
		t.Errorf("/v1/stats decoded cache = %+v", got.DecodedCache)
	}
	if second.reg.CounterValue("trace.decoded_cache.misses") == 0 {
		t.Error("decoded-cache counters not attached to the server registry")
	}

	// The one resident capture is the baseline's, not the cell's own.
	for kind, want := range map[string]bool{"baseline-timing": true, cell.Kind: false} {
		ident, _ := second.shards[0].runner.CellCaptureIdent(kind, cell.Bench, cell.Org, cell.M, cell.Frac, cell.Rate)
		d, err := trace.FileDigest(workloads.CapturePath(dir, ident))
		if err != nil {
			t.Fatal(err)
		}
		if got := second.decoded.Get(d) != nil; got != want {
			t.Errorf("%s capture resident = %v, want %v", kind, got, want)
		}
	}
}

// TestServerTraceRoundTrip drives one cell through a trace-dir-backed
// server twice across restarts: the second server replays the first's
// capture bit-identically and reports the replay in its stats.
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
