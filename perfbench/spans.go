package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"doppelganger/internal/trace"
)

// spans records the benchmark's calls into the program's layers. The traced
// grid runs on one goroutine, so open spans form a stack: a span's parent is
// the span below it. Finished spans are kept in memory and written out at
// exit.
type spans struct {
	epoch time.Time
	next  int
	open  []openSpan
	done  []doneSpan
}

type openSpan struct {
	id, parent int
	name       string
	start      time.Time
	children   time.Duration // total duration of finished direct children
}

type doneSpan struct {
	id, parent         int // parent is -1 for a root span
	name               string
	start, total, self time.Duration
}

// begin opens a span; every begin is matched by one end.
func (s *spans) begin(name string) {
	if s.epoch.IsZero() {
		s.epoch = time.Now()
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1].id
	}
	s.open = append(s.open, openSpan{id: s.next, parent: parent, name: name, start: time.Now()})
	s.next++
}

// end closes the innermost open span. Its self time is its duration minus
// the part its children cover.
func (s *spans) end() {
	top := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	total := time.Since(top.start)
	s.done = append(s.done, doneSpan{id: top.id, parent: top.parent, name: top.name,
		start: top.start.Sub(s.epoch), total: total, self: total - top.children})
	if n := len(s.open); n > 0 {
		s.open[n-1].children += total
	}
}

// last is the most recently finished span.
func (s *spans) last() doneSpan { return s.done[len(s.done)-1] }

// in runs fn inside a span.
func (s *spans) in(name string, fn func() error) error {
	s.begin(name)
	defer s.end()
	return fn()
}

// write writes every finished span as one JSON line: its id, its parent's
// id, its name, and its start, duration and self time in microseconds.
func (s *spans) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, d := range s.done {
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_us\":%d,\"dur_us\":%d,\"self_us\":%d}\n",
			d.id, d.parent, d.name, d.start.Microseconds(), d.total.Microseconds(), d.self.Microseconds())
	}
	return bw.Flush()
}

// spanStat is one span name's totals.
type spanStat struct {
	Calls  int     `json:"calls"`
	SelfS  float64 `json:"self_s"`
	TotalS float64 `json:"total_s"`
}

// stats reduces the finished spans by name.
func (s *spans) stats() map[string]spanStat {
	out := map[string]spanStat{}
	for _, d := range s.done {
		st := out[d.name]
		st.Calls++
		st.SelfS += d.self.Seconds()
		st.TotalS += d.total.Seconds()
		out[d.name] = st
	}
	return out
}

// print writes the span table: calls, self and total seconds per name.
func printSpans(w io.Writer, stats map[string]spanStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "calls", "self s", "total s")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "%-24s %8d %12.6f %12.6f\n", n, st.Calls, st.SelfS, st.TotalS)
	}
}

// timedFS is the trace store's filesystem seam with every call recorded as
// a span (named span) and every byte counted.
type timedFS struct {
	sp                  *spans
	span                string
	bytesRead, bytesOut int64
}

func (f *timedFS) Open(name string) (trace.File, error) {
	f.sp.begin(f.span)
	defer f.sp.end()
	h, err := trace.OS.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: h, fs: f}, nil
}

func (f *timedFS) CreateTemp(dir, pattern string) (trace.File, error) {
	f.sp.begin(f.span)
	defer f.sp.end()
	h, err := trace.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: h, fs: f}, nil
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	f.sp.begin(f.span)
	defer f.sp.end()
	return trace.OS.Rename(oldpath, newpath)
}

func (f *timedFS) Remove(name string) error {
	f.sp.begin(f.span)
	defer f.sp.end()
	return trace.OS.Remove(name)
}

func (f *timedFS) MkdirAll(dir string) error {
	f.sp.begin(f.span)
	defer f.sp.end()
	return trace.OS.MkdirAll(dir)
}

func (f *timedFS) ReadDir(dir string) ([]os.DirEntry, error) {
	f.sp.begin(f.span)
	defer f.sp.end()
	return trace.OS.ReadDir(dir)
}

func (f *timedFS) Stat(name string) (os.FileInfo, error) {
	f.sp.begin(f.span)
	defer f.sp.end()
	return trace.OS.Stat(name)
}

func (f *timedFS) SyncDir(dir string) error {
	f.sp.begin(f.span)
	defer f.sp.end()
	return trace.OS.SyncDir(dir)
}

type timedFile struct {
	trace.File
	fs *timedFS
}

func (t *timedFile) Read(p []byte) (int, error) {
	t.fs.sp.begin(t.fs.span)
	defer t.fs.sp.end()
	n, err := t.File.Read(p)
	t.fs.bytesRead += int64(n)
	return n, err
}

func (t *timedFile) Write(p []byte) (int, error) {
	t.fs.sp.begin(t.fs.span)
	defer t.fs.sp.end()
	n, err := t.File.Write(p)
	t.fs.bytesOut += int64(n)
	return n, err
}

func (t *timedFile) Sync() error {
	t.fs.sp.begin(t.fs.span)
	defer t.fs.sp.end()
	return t.File.Sync()
}

func (t *timedFile) Close() error {
	t.fs.sp.begin(t.fs.span)
	defer t.fs.sp.end()
	return t.File.Close()
}
