package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"

	"doppelganger/internal/approx"
	"doppelganger/internal/memdata"
)

// largeCapture builds a capture shaped like a recorded benchmark: four cores
// walking their own slices of a 1 MiB annotated array with occasional
// stores, a contiguous initial image of that array, and a short output.
func largeCapture(tb testing.TB, records int) *Capture {
	tb.Helper()
	const base, span = 0x0010_0000, 1 << 20
	ann, err := approx.NewAnnotations(
		approx.Region{Name: "data", Start: base, End: base + span, Type: memdata.F32, Min: -1, Max: 1})
	if err != nil {
		tb.Fatal(err)
	}
	st := memdata.NewStore()
	for a := memdata.Addr(base); a < base+span; a += memdata.BlockSize {
		st.WriteU32(a, uint32(a)*2654435761)
	}
	rec := NewRecorder(4)
	x := uint32(1)
	for i := 0; i < records; i++ {
		x = x*1664525 + 1013904223
		c := int(x>>30) & 3
		rec.Work(c, int(x>>27&7))
		off := (uint32(i)*4 + uint32(c)*(span/4) + x>>20&0x3C) % span
		rec.Access(c, memdata.Addr(base+off), x&7 == 0, 4, uint64(x), true)
	}
	out := make([]float64, 1024)
	for i := range out {
		out[i] = float64(i) / 3
	}
	return &Capture{
		Header:      FileHeader{Benchmark: "synthetic", Scale: 0.05, Cores: 4, Seed: 1, ConfigKey: "dgtf1|synthetic"},
		Annotations: ann,
		InitialMem:  st,
		Recorder:    rec,
		Output:      out,
	}
}

// allocated returns the bytes the heap handed out while fn ran.
func allocated(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// statFS reports a wrong size for every file and serves reads in halves,
// so the reader can trust neither the size nor a full Read.
type statFS struct {
	FS
	size func(real int64) int64
}

func (s statFS) Stat(name string) (os.FileInfo, error) {
	fi, err := s.FS.Stat(name)
	if err != nil {
		return nil, err
	}
	return sizedInfo{fi, s.size(fi.Size())}, nil
}

func (s statFS) Open(name string) (File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return halfFile{f}, nil
}

type sizedInfo struct {
	os.FileInfo
	size int64
}

func (i sizedInfo) Size() int64 { return i.size }

type halfFile struct{ File }

func (h halfFile) Read(p []byte) (int, error) { return iotest.HalfReader(h.File).Read(p) }

// allocSlack covers the fixed costs of a decode (the Capture, the store's
// radix root, the error strings, Stat's FileInfo).
const allocSlack = 64 << 10

// TestCaptureDecodeAllocations pins what one decode allocates. A capture of
// 250k records must cost at most its file size (the one read buffer) plus
// 1.25 × SizeBytes (the decoded image, streams, index and output). Hostile
// lengths must be rejected at the cost of the bytes present, and a wrong
// Stat size must still decode correctly, costing the claimed size when it
// over-reports and at most four times the file (the doubling buffer) when
// it under-reports.
func TestCaptureDecodeAllocations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "large.dgt")
	if err := largeCapture(t, 250_000).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(data))

	var c *Capture
	got := allocated(func() { c, err = ReadCaptureFileFS(OS, path) })
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Recorder.Len(); n < 200_000 {
		t.Fatalf("capture has %d records, want at least 200k", n)
	}
	decoded := c.SizeBytes()
	if limit := size + decoded*5/4; got > limit {
		t.Errorf("decode of a %d-byte capture (SizeBytes %d) allocated %d bytes, limit %d", size, decoded, got, limit)
	}
	t.Logf("file %d B, SizeBytes %d B, decode allocated %d B (%.2f× file + SizeBytes)",
		size, decoded, got, float64(got)/float64(size+decoded))

	// The same bytes, one byte at a time, through the io.Reader entry point
	// (which cannot know the size and grows its buffer).
	if c2, err := readCaptureStream(iotest.OneByteReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(encodeCapture(t, c2), data) {
		t.Fatal("byte-at-a-time decode differs from the file")
	}

	// The lengths TestCaptureHostileLengths claims: a section of ~2 GB
	// backed by 4 bytes, and one of 2^64-1. Both in memory and on disk.
	pre := append([]byte(captureMagic), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, secHeader)
	hostile := map[string][]byte{
		"2GB length":    append(append(append([]byte(nil), pre...), 0xFF, 0xFF, 0xFF, 0xFF, 0x07), "lies"...),
		"2^64-1 length": append(append([]byte(nil), pre...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
	}
	for name, b := range hostile {
		hpath := filepath.Join(dir, "hostile.dgt")
		if err := os.WriteFile(hpath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		got := allocated(func() {
			if _, err := readCaptureStream(bytes.NewReader(b)); err == nil {
				t.Errorf("%s: accepted from memory", name)
			}
			if _, err := ReadCaptureFileFS(OS, hpath); err == nil || !IsQuarantineable(err) {
				t.Errorf("%s: file not rejected as corrupt: %v", name, err)
			}
		})
		if limit := 2*int64(len(b)) + allocSlack; got > limit {
			t.Errorf("%s: rejecting %d bytes allocated %d, limit %d", name, len(b), got, limit)
		}
	}

	// A truncated capture is rejected by its frames before any section is
	// decoded: it costs the read buffer and nothing proportional to the
	// records it claims.
	tpath := filepath.Join(dir, "truncated.dgt")
	if err := os.WriteFile(tpath, data[:size*3/4], 0o644); err != nil {
		t.Fatal(err)
	}
	got = allocated(func() {
		if _, err := ReadCaptureFileFS(OS, tpath); err == nil || !IsQuarantineable(err) {
			t.Errorf("truncated capture not rejected as corrupt: %v", err)
		}
	})
	if limit := size*3/4 + allocSlack; got > limit {
		t.Errorf("rejecting a truncated capture allocated %d, limit %d", got, limit)
	}

	// Wrong Stat sizes, with every Read served in halves.
	for _, tc := range []struct {
		name string
		stat int64
	}{
		{"stat zero", 0},
		{"stat half", size / 2},
		{"stat one short", size - 1},
		{"stat one long", size + 1},
		{"stat 64KiB long", size + 64<<10},
		{"stat double", 2 * size},
	} {
		fsys := statFS{FS: OS, size: func(int64) int64 { return tc.stat }}
		var c *Capture
		got := allocated(func() { c, err = ReadCaptureFileFS(fsys, path) })
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(encodeCapture(t, c), data) {
			t.Errorf("%s: decoded capture differs from the file", tc.name)
		}
		limit := tc.stat + decoded*5/4 + allocSlack
		if tc.stat < size {
			limit += 4 * size
		}
		if got > limit {
			t.Errorf("%s: decode allocated %d, limit %d", tc.name, got, limit)
		}
	}
}

// benchCapture keeps the benchmarked decode's result alive.
var benchCapture *Capture

// BenchmarkCaptureDecode decodes a 250k-record capture from memory: the
// DGTC decoder's throughput (MB/s of file) and its allocations per decode.
func BenchmarkCaptureDecode(b *testing.B) {
	var buf bytes.Buffer
	if _, err := largeCapture(b, 250_000).WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := readCaptureStream(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		benchCapture = c
	}
}
