package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// drainedHandler returns the HTTP API of a small server that is already
// draining: Submit validates before its drain check, so a valid cell gets
// 503 and an invalid one 400, and no simulation ever runs.
func drainedHandler(tb testing.TB) http.Handler {
	tb.Helper()
	s, err := New(testConfig())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	s.Drain(context.Background())
	return s.Handler()
}

func postJob(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return rec
}

// TestSubmitBodyStrict pins the job body's grammar: exactly one JSON cell,
// optionally surrounded by whitespace, within maxBodyBytes (413 beyond it).
// Trailing bytes and a second cell are refused, not silently dropped.
func TestSubmitBodyStrict(t *testing.T) {
	h := drainedHandler(t)
	const cell = `{"kind":"baseline-timing","bench":"kmeans"}`
	pad := func(n int) string { return cell + strings.Repeat(" ", n-len(cell)) }
	cases := []struct {
		name string
		body string
		want int
	}{
		{"one cell", cell, http.StatusServiceUnavailable},
		{"surrounding whitespace", "\n\t " + cell + " \r\n", http.StatusServiceUnavailable},
		{"exactly maxBodyBytes", pad(maxBodyBytes), http.StatusServiceUnavailable},
		{"maxBodyBytes+1", pad(maxBodyBytes + 1), http.StatusRequestEntityTooLarge},
		{"trailing garbage", cell + "garbage", http.StatusBadRequest},
		{"trailing brace", cell + "}", http.StatusBadRequest},
		{"two cells", cell + `{"kind":"figure","figure":"fig9"}`, http.StatusBadRequest},
		{"unknown field", `{"kind":"baseline-timing","bench":"kmeans","bogus":1}`, http.StatusBadRequest},
		{"invalid cell", `{"kind":"baseline-timing","bench":"nope"}`, http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := postJob(h, []byte(tc.body))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
		}
	}
}

// FuzzSubmitBody drives POST /v1/jobs with arbitrary bodies against a
// draining server. The handler must never panic and must answer every body
// with an errorBody: 413 for a body over maxBodyBytes, 503 exactly when the
// body is one JSON value, with no unknown field, that decodes to a valid
// cell, and 400 otherwise. It never answers 200 or 500.
func FuzzSubmitBody(f *testing.F) {
	h := drainedHandler(f)
	for _, seed := range []string{
		`{"kind":"baseline-timing","bench":"kmeans"}`,
		`{"kind":"split-error","bench":"kmeans","m":14,"frac":0.25}`,
		`{"kind":"split-timing","bench":"kmeans","m":14,"frac":0.25}`,
		`{"kind":"uni-error","bench":"kmeans","m":14,"frac":0.5}`,
		`{"kind":"uni-timing","bench":"kmeans","m":14,"frac":0.5}`,
		`{"kind":"fault-error","bench":"kmeans","org":"doppel","rate":1e-4}`,
		`{"kind":"quality-error","bench":"kmeans","org":"doppel","rate":1e-4}`,
		`{"kind":"quality-timing","bench":"kmeans","org":"doppel","rate":1e-4,"guarded":true}`,
		`{"kind":"figure","figure":"fig10"}`,
		`{"kind":"split-error","bench":"kmeans","m":33,"frac":0.25}`,
		`{"kind":"uni-error","bench":"kmeans","m":14,"frac":1.5}`,
		`{"kind":"fault-error","bench":"kmeans","org":"doppel","rate":2}`,
		`{"kind":"split-error","bench":"kmeans","m":14,"frac":0.25,"bogus":1}`,
		`{"kind":"baseline-timing","bench":"kmeans"}garbage`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := postJob(h, body)
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Fatalf("status %d body %q is not an errorBody (%v)", rec.Code, rec.Body.String(), err)
		}
		want := http.StatusBadRequest
		if len(body) > maxBodyBytes {
			want = http.StatusRequestEntityTooLarge
		} else if strictCell(body) {
			want = http.StatusServiceUnavailable
		}
		if rec.Code != want {
			t.Fatalf("body %q: status %d, want %d (%s)", body, rec.Code, want, eb.Error)
		}
	})
}

// strictCell is the fuzz oracle, built apart from the handler's decoder:
// json.Valid admits exactly one value with optional whitespace around it,
// and a decoder refusing unknown fields must turn it into a valid cell.
func strictCell(body []byte) bool {
	if len(body) > maxBodyBytes || !json.Valid(body) {
		return false
	}
	var c Cell
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(&c) == nil && c.Validate() == nil
}
