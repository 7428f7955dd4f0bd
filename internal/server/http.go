package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxBodyBytes bounds a job request body; cells are tiny.
const maxBodyBytes = 1 << 20

// bodyReadTimeout bounds how long a client may take to send a job body once
// its headers are in, so a trickled body cannot hold a connection and its
// goroutine. It is a per-request read deadline, cleared before the job runs:
// a deadline that expired mid-job would make net/http's background read of
// the connection cancel the request's context.
const bodyReadTimeout = 5 * time.Second

// errorBody is every non-200 response's JSON shape.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (the header has no sub-second form).
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs  — submit one cell, respond with its Result envelope
//	GET  /healthz  — liveness (200 while the process runs)
//	GET  /readyz   — readiness (503 once draining or fully quarantined)
//	GET  /v1/stats — health snapshot (shards, breakers, counters)
//	GET  /metrics  — the metrics registry as JSONL
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Ready() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		reason := "no live shard"
		if s.Draining() {
			reason = "draining"
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: reason})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Refresh the degraded-mode gauge from the counters before
		// rendering, so scrapes see the current level.
		s.degradedGauge.Set(int64(s.reg.CounterValue("trace.degraded")))
		w.Header().Set("Content-Type", "application/jsonl")
		s.reg.WriteJSONL(w, "server")
	})
	return mux
}

// handleSubmit decodes exactly one Cell and maps Submit's error taxonomy
// onto HTTP: 400 invalid or trailing body, 429 shed (with Retry-After), 503
// draining, 504 job deadline, 500 exhausted retries.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	// Only a writer with no connection behind it (a test recorder) refuses
	// a deadline; its body is size-bounded all the same.
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	c, err := decodeCell(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	res, err := s.Submit(r.Context(), c)
	if err == nil {
		writeJSON(w, http.StatusOK, res)
		return
	}
	var overload *OverloadError
	switch {
	case errors.Is(err, ErrBadCell):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.As(err, &overload):
		w.Header().Set("Retry-After", retryAfterSeconds(overload.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// decodeCell reads one JSON cell and requires the body to end after it, so
// trailing bytes or a second cell are refused rather than silently dropped.
func decodeCell(body io.Reader) (Cell, error) {
	var c Cell
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Cell{}, err
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return Cell{}, fmt.Errorf("after the cell: %v", err)
	}
	return c, nil
}
