package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"doppelganger/internal/server"
)

// TestSlowClientsAreCut serves the job API through newHTTPServer on a real
// listener and drives it over raw TCP. A client that trickles its headers,
// or stalls inside a body shorter than its Content-Length, must lose the
// connection within the timeout plus 2 s; a normal POST to the same server
// meanwhile still answers. The body's deadline is internal/server's
// bodyReadTimeout, which equals readHeaderTimeout.
func TestSlowClientsAreCut(t *testing.T) {
	s, err := server.New(server.Config{Scale: 0.02, Only: []string{"kmeans"}, Shards: 1, ShardWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(s.Handler())
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	addr := ln.Addr().String()
	limit := readHeaderTimeout + 2*time.Second

	// stall sends raw bytes and never finishes the request; it returns what
	// the server sent before closing, failing if the close takes too long.
	stall := func(t *testing.T, req string) []byte {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		conn.SetDeadline(start.Add(limit))
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("connection still open after %v: %v", time.Since(start).Round(time.Millisecond), err)
		}
		return got
	}

	t.Run("partial header", func(t *testing.T) {
		t.Parallel()
		stall(t, "POST /v1/jobs HTTP/1.1\r\nHost: sweepd\r\nContent-Type: application/json\r\n")
	})
	t.Run("short body", func(t *testing.T) {
		t.Parallel()
		got := stall(t, "POST /v1/jobs HTTP/1.1\r\nHost: sweepd\r\nContent-Length: 100\r\n\r\n"+`{"kind":"f`)
		if len(got) > 0 && !bytes.HasPrefix(got, []byte("HTTP/1.1 400 ")) {
			t.Fatalf("stalled body answered %q, want 400 or a close", got)
		}
	})
	t.Run("normal post", func(t *testing.T) {
		t.Parallel()
		resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json",
			strings.NewReader(`{"kind":"split-error","bench":"kmeans","m":14,"frac":0.25}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	})
}
