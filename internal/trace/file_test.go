package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doppelganger/internal/approx"
	"doppelganger/internal/memdata"
)

// testCapture builds a small but fully-featured capture: two annotated
// regions, a sparse memory image spanning non-adjacent pages, two cores
// with interleaved accesses, and an output with sign/NaN-adjacent bit
// patterns worth preserving exactly.
func testCapture(t testing.TB) *Capture {
	t.Helper()
	ann, err := approx.NewAnnotations(
		approx.Region{Name: "prices", Start: 0x1000, End: 0x2000, Type: memdata.F32, Min: -1, Max: 1},
		approx.Region{Name: "pixels", Start: 0x0010_0000, End: 0x0010_4000, Type: memdata.U8, Min: 0, Max: 255},
	)
	if err != nil {
		t.Fatal(err)
	}
	st := memdata.NewStore()
	st.WriteF32(0x1000, 0.5)
	st.WriteF32(0x1044, -2.25)
	st.WriteU64(0x0010_0000, 0xDEADBEEFCAFEBABE)
	st.WriteU8(0xFFFF_FFC0, 7) // last block of the address space
	rec := NewRecorder(2)
	rec.Work(0, 5)
	rec.Access(0, 0x1000, false, 4, 0, true)
	rec.Access(1, 0x0010_0000, true, 8, 0xDEADBEEFCAFEBABE, false)
	rec.Work(0, 2)
	rec.Access(0, 0x1044, true, 4, 42, true)
	rec.Access(1, 0xFFFF_FFC0, false, 1, 0, false)
	return &Capture{
		Header: FileHeader{
			Benchmark: "blackscholes",
			Scale:     0.25,
			Cores:     2,
			Seed:      7,
			ConfigKey: "dgtf1|base/blackscholes|scale=0.25|cores=2",
		},
		Annotations: ann,
		InitialMem:  st,
		Recorder:    rec,
		Output:      []float64{1, -2.5, math.Copysign(0, -1), 1e-308},
	}
}

func encodeCapture(t testing.TB, c *Capture) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func storeBlocks(st *memdata.Store) map[memdata.Addr]memdata.Block {
	m := map[memdata.Addr]memdata.Block{}
	st.ForEachBlock(func(a memdata.Addr, b *memdata.Block) { m[a] = *b })
	return m
}

func TestCaptureRoundTrip(t *testing.T) {
	c := testCapture(t)
	got, err := ReadCapture(bytes.NewReader(encodeCapture(t, c)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != c.Header {
		t.Fatalf("header changed: %+v -> %+v", c.Header, got.Header)
	}
	wantR, gotR := c.Annotations.Regions(), got.Annotations.Regions()
	if len(gotR) != len(wantR) {
		t.Fatalf("region count changed: %d -> %d", len(wantR), len(gotR))
	}
	for i := range wantR {
		if gotR[i] != wantR[i] {
			t.Fatalf("region %d changed: %+v -> %+v", i, wantR[i], gotR[i])
		}
	}
	wantM, gotM := storeBlocks(c.InitialMem), storeBlocks(got.InitialMem)
	if len(gotM) != len(wantM) {
		t.Fatalf("block count changed: %d -> %d", len(wantM), len(gotM))
	}
	for a, b := range wantM {
		if gotM[a] != b {
			t.Fatalf("block %v payload changed", a)
		}
	}
	if len(got.Recorder.Cores) != len(c.Recorder.Cores) {
		t.Fatalf("core count changed: %d -> %d", len(c.Recorder.Cores), len(got.Recorder.Cores))
	}
	for i, tr := range c.Recorder.Cores {
		if len(got.Recorder.Cores[i]) != len(tr) {
			t.Fatalf("core %d record count changed", i)
		}
		for j := range tr {
			if got.Recorder.Cores[i][j] != tr[j] {
				t.Fatalf("core %d record %d changed: %+v -> %+v", i, j, tr[j], got.Recorder.Cores[i][j])
			}
		}
	}
	if len(got.Recorder.Order) != len(c.Recorder.Order) {
		t.Fatalf("order length changed: %d -> %d", len(c.Recorder.Order), len(got.Recorder.Order))
	}
	for i := range c.Recorder.Order {
		if got.Recorder.Order[i] != c.Recorder.Order[i] {
			t.Fatalf("order entry %d changed", i)
		}
	}
	if len(got.Output) != len(c.Output) {
		t.Fatalf("output length changed: %d -> %d", len(c.Output), len(got.Output))
	}
	for i := range c.Output {
		if math.Float64bits(got.Output[i]) != math.Float64bits(c.Output[i]) {
			t.Fatalf("output %d changed bits: %x -> %x", i,
				math.Float64bits(c.Output[i]), math.Float64bits(got.Output[i]))
		}
	}
}

// TestCaptureOutputOnly proves the lite decode mode: header, annotations and
// output are materialized and bit-identical to the full decode, memory and
// trace streams are not, and integrity is still enforced end to end — a
// corrupted byte anywhere in the file is rejected even when it lies in a
// section the lite decode skips.
func TestCaptureOutputOnly(t *testing.T) {
	c := testCapture(t)
	data := encodeCapture(t, c)
	path := filepath.Join(t.TempDir(), "lite.dgt")
	readLite := func(data []byte) (*Capture, error) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return ReadCaptureOutputFileFS(OS, path)
	}
	got, err := readLite(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != c.Header {
		t.Fatalf("header changed: %+v -> %+v", c.Header, got.Header)
	}
	if len(got.Annotations.Regions()) != len(c.Annotations.Regions()) {
		t.Fatalf("region count changed")
	}
	if got.InitialMem != nil || got.Recorder != nil {
		t.Fatalf("lite decode materialized skipped sections: mem=%v rec=%v",
			got.InitialMem != nil, got.Recorder != nil)
	}
	if len(got.Output) != len(c.Output) {
		t.Fatalf("output length changed: %d -> %d", len(c.Output), len(got.Output))
	}
	for i := range c.Output {
		if math.Float64bits(got.Output[i]) != math.Float64bits(c.Output[i]) {
			t.Fatalf("output %d changed bits", i)
		}
	}
	// Integrity still covers skipped sections: flip one byte in every
	// position and demand rejection (the digest guards all of them).
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x80
		if _, err := readLite(bad); err == nil {
			t.Fatalf("lite decode accepted a corrupt byte at offset %d", i)
		}
	}
}

// TestCaptureBytesDeterministic proves the encoding is byte-stable: the same
// capture always serializes to the same bytes (memory blocks are walked in
// address order, never map order), so content digests and warm-cache
// comparisons are meaningful.
func TestCaptureBytesDeterministic(t *testing.T) {
	a := encodeCapture(t, testCapture(t))
	b := encodeCapture(t, testCapture(t))
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of identical captures differ")
	}
	// And a decode→re-encode cycle reproduces the original bytes exactly.
	c, err := ReadCapture(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCapture(t, c), a) {
		t.Fatal("re-encode after decode changed the bytes")
	}
}

// TestCaptureRejections feeds the decoder a catalogue of hostile or damaged
// inputs. Every one must fail with an error that names the problem — never
// a panic, never a silent success.
func TestCaptureRejections(t *testing.T) {
	good := encodeCapture(t, testCapture(t))
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x40
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string // substring the error must contain
	}{
		{"empty", nil, "preamble"},
		{"short preamble", good[:10], "preamble"},
		{"bad magic", flip(0), "magic"},
		{"bad version", flip(4), "version"},
		{"bad digest", flip(8), ""}, // surfaces as section CRC or digest mismatch
		{"section id flipped", flip(16), "out of order"},
		{"payload corrupted", flip(20), "crc mismatch"},
		{"truncated mid-section", good[:len(good)/2], ""},
		{"truncated before crc", good[:len(good)-3], ""},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCapture(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCaptureHostileLengths claims absurd section and record counts: the
// decoder must fail at the real EOF without allocating proportionally to
// the lie.
func TestCaptureHostileLengths(t *testing.T) {
	// A section claiming ~2 GB of payload backed by 4 real bytes.
	var b bytes.Buffer
	b.WriteString(captureMagic)
	b.Write([]byte{1, 0, 0, 0}) // version 1, flags 0
	b.Write(make([]byte, 8))    // digest (never reached)
	b.WriteByte(secHeader)
	b.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x07}) // uvarint ≈ 2^31-1
	b.WriteString("lies")
	if _, err := ReadCapture(bytes.NewReader(b.Bytes())); err == nil {
		t.Fatal("2GB claimed length accepted")
	}

	// Beyond the sanity bound entirely.
	b.Reset()
	b.WriteString(captureMagic)
	b.Write([]byte{1, 0, 0, 0})
	b.Write(make([]byte, 8))
	b.WriteByte(secHeader)
	b.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // uvarint 2^64-1
	if _, err := ReadCapture(bytes.NewReader(b.Bytes())); err == nil {
		t.Fatal("2^64 claimed length accepted")
	}
}

// TestWriteFileAtomic checks the persist path: a successful WriteFile is
// readable back, a failed one (missing directory) leaves nothing behind,
// and no temp files linger either way.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	c := testCapture(t)
	path := filepath.Join(dir, "cap.dgt")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCaptureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != c.Header {
		t.Fatalf("header changed through the file: %+v", got.Header)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "cap.dgt" {
		t.Fatalf("unexpected directory contents after write: %v", ents)
	}
	if err := c.WriteFile(filepath.Join(dir, "missing", "cap.dgt")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	// An unencodable capture must fail before touching the target file.
	bad := &Capture{Header: c.Header, Annotations: c.Annotations, InitialMem: c.InitialMem,
		Recorder: &Recorder{Cores: make([]Trace, 1), Order: []uint16{0}}} // order/stream mismatch
	if err := bad.WriteFile(path); err == nil {
		t.Fatal("inconsistent capture persisted")
	}
	if got2, err := ReadCaptureFile(path); err != nil || got2.Header != c.Header {
		t.Fatalf("failed write damaged the existing file: %v", err)
	}
}

// TestCursorOrder proves the cursor yields exactly the recorded global
// interleaving, and that validation rejects inconsistent order indexes.
func TestCursorOrder(t *testing.T) {
	rec := testCapture(t).Recorder
	cur, err := rec.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	if cur.Len() != rec.Len() {
		t.Fatalf("cursor length %d, recorder has %d", cur.Len(), rec.Len())
	}
	for pass := 0; pass < 2; pass++ {
		pos := make([]int, len(rec.Cores))
		for i := 0; ; i++ {
			c, r := cur.Next()
			if c < 0 {
				if i != rec.Len() {
					t.Fatalf("pass %d: cursor ended after %d of %d", pass, i, rec.Len())
				}
				break
			}
			if uint16(c) != rec.Order[i] {
				t.Fatalf("pass %d access %d: core %d, order says %d", pass, i, c, rec.Order[i])
			}
			if *r != rec.Cores[c][pos[c]] {
				t.Fatalf("pass %d access %d: wrong record", pass, i)
			}
			pos[c]++
		}
		cur.Reset()
	}

	if _, err := NewRecorder(2).Cursor(); err != nil {
		t.Fatalf("empty recorder must cursor cleanly: %v", err)
	}
	legacy := NewRecorder(1)
	legacy.Cores[0] = Trace{{Addr: 64}} // stream without an order index
	if _, err := legacy.Cursor(); err == nil {
		t.Fatal("order-less recorder accepted")
	}
	bad := NewRecorder(1)
	bad.Access(0, 64, false, 4, 0, false)
	bad.Order[0] = 3 // names a core that doesn't exist
	if _, err := bad.Cursor(); err == nil {
		t.Fatal("out-of-range order entry accepted")
	}
}

// TestCursorZeroAlloc pins the steady-state replay read path at zero
// allocations per full walk: functional replay's per-access cost is a few
// slice operations, nothing for the garbage collector.
func TestCursorZeroAlloc(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 4096; i++ {
		rec.Work(i%4, 3)
		rec.Access(i%4, memdata.Addr(i*64), i%3 == 0, 4, uint64(i), i%2 == 0)
	}
	cur, err := rec.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		cur.Reset()
		for {
			c, r := cur.Next()
			if c < 0 {
				break
			}
			_ = r.Addr
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state replay read path allocates %.0f per walk, want 0", allocs)
	}
}

// --- semantic corruption: valid checksums, hostile content ---

type rawSection struct {
	id      byte
	payload []byte
}

// sectionsOf splits an encoded capture into its framed sections.
func sectionsOf(t *testing.T, data []byte) []rawSection {
	t.Helper()
	rest := data[16:]
	var secs []rawSection
	for len(rest) > 0 {
		id := rest[0]
		n, k := binary.Uvarint(rest[1:])
		if k <= 0 || 1+k+int(n)+4 > len(rest) {
			t.Fatal("bad section frame in a freshly encoded capture")
		}
		secs = append(secs, rawSection{id, append([]byte(nil), rest[1+k:1+k+int(n)]...)})
		rest = rest[1+k+int(n)+4:]
	}
	return secs
}

// rebuild assembles a full capture file — valid section CRCs and a valid
// digest — from raw sections, so the decoder's semantic checks, not the
// checksums, are what reject the content.
func rebuild(secs []rawSection) []byte {
	var body bytes.Buffer
	for _, s := range secs {
		appendSection(&body, s.id, s.payload)
	}
	out := make([]byte, 0, 16+body.Len())
	out = append(out, captureMagic...)
	out = binary.LittleEndian.AppendUint16(out, CaptureVersion)
	out = binary.LittleEndian.AppendUint16(out, 0)
	out = binary.LittleEndian.AppendUint64(out, crc64.Checksum(body.Bytes(), crcTable))
	return append(out, body.Bytes()...)
}

// TestCaptureSemanticRejections replaces one well-formed section payload at
// a time with hostile content that passes every checksum: lied-about
// counts, out-of-range values, inconsistent cross-section state. Each must
// fail with an error naming the problem, before any allocation
// proportional to the lie.
func TestCaptureSemanticRejections(t *testing.T) {
	good := sectionsOf(t, encodeCapture(t, testCapture(t)))
	idx := map[byte]int{}
	for i, s := range good {
		idx[s.id] = i
	}
	mutate := func(id byte, build func(w *sectionWriter)) []byte {
		secs := append([]rawSection(nil), good...)
		var w sectionWriter
		build(&w)
		secs[idx[id]] = rawSection{id, append([]byte(nil), w.buf.Bytes()...)}
		return rebuild(secs)
	}
	region := func(w *sectionWriter, name string, start, end uint64, typ byte) {
		w.str(name)
		w.uvarint(start)
		w.uvarint(end)
		w.buf.WriteByte(typ)
		w.u64(math.Float64bits(0))
		w.u64(math.Float64bits(1))
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"header name length lie", mutate(secHeader, func(w *sectionWriter) {
			w.uvarint(1 << 40)
		}), "benchmark name length"},
		{"header core count differs from traces", mutate(secHeader, func(w *sectionWriter) {
			w.str("blackscholes")
			w.u64(math.Float64bits(0.25))
			w.uvarint(4) // the traces section holds 2 cores
			w.u64(7)
			w.str("k")
		}), "traces section has 2 cores, header names 4"},
		{"header trailing garbage", mutate(secHeader, func(w *sectionWriter) {
			w.str("b")
			w.u64(0)
			w.uvarint(2)
			w.u64(0)
			w.str("k")
			w.buf.WriteString("junk")
		}), "trailing bytes"},
		{"region count beyond cap", mutate(secAnnotations, func(w *sectionWriter) {
			w.uvarint(1 << 40)
		}), "implausible region count"},
		{"region count beyond payload", mutate(secAnnotations, func(w *sectionWriter) {
			w.uvarint(1000)
		}), "exceeds payload"},
		{"region unknown element type", mutate(secAnnotations, func(w *sectionWriter) {
			w.uvarint(1)
			region(w, "r", 0x40, 0x80, 0xEE)
		}), "unknown element type"},
		{"region inverted bounds", mutate(secAnnotations, func(w *sectionWriter) {
			w.uvarint(1)
			region(w, "r", 0x80, 0x40, 0)
		}), "annotations invalid"},
		{"region beyond address space", mutate(secAnnotations, func(w *sectionWriter) {
			w.uvarint(1)
			region(w, "r", 0x40, 1<<40, 0)
		}), "32-bit address space"},
		{"memory count lie", mutate(secMemory, func(w *sectionWriter) {
			w.uvarint(1 << 40)
		}), "exceeds payload"},
		{"memory zero gap", mutate(secMemory, func(w *sectionWriter) {
			w.uvarint(2)
			w.uvarint(5)
			w.buf.Write(make([]byte, memdata.BlockSize))
			w.uvarint(0)
			w.buf.Write(make([]byte, memdata.BlockSize))
		}), "zero gap"},
		{"memory block beyond address space", mutate(secMemory, func(w *sectionWriter) {
			w.uvarint(1)
			w.uvarint(1 << 60)
			w.buf.Write(make([]byte, memdata.BlockSize))
		}), "beyond the 32-bit space"},
		{"trace core count beyond cap", mutate(secTraces, func(w *sectionWriter) {
			w.uvarint(4096)
		}), "implausible core count"},
		{"trace record count lie", mutate(secTraces, func(w *sectionWriter) {
			w.uvarint(1)
			w.uvarint(1 << 40)
		}), "exceeds payload"},
		{"trace record size overflow", mutate(secTraces, func(w *sectionWriter) {
			w.uvarint(1)
			w.uvarint(1)
			w.uvarint(0x100 << 2) // flags: size 256
			w.varint(0)
			w.uvarint(0)
		}), "exceeds a byte"},
		{"trace negative address", mutate(secTraces, func(w *sectionWriter) {
			w.uvarint(1)
			w.uvarint(1)
			w.uvarint(0)
			w.varint(-5)
			w.uvarint(0)
		}), "leaves the 32-bit space"},
		{"order count mismatch", mutate(secOrder, func(w *sectionWriter) {
			w.uvarint(0)
		}), "does not match"},
		{"order core out of range", mutate(secOrder, func(w *sectionWriter) {
			w.uvarint(4)
			w.uvarint(0)
			w.uvarint(1)
			w.uvarint(0)
			w.uvarint(7)
		}), "names core"},
		{"output count lie", mutate(secOutput, func(w *sectionWriter) {
			w.uvarint(1 << 40)
		}), "exceeds payload"},
	}
	path := filepath.Join(t.TempDir(), "hostile.dgt")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCapture(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("semantically hostile input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// Read from a file, the same bytes are corrupt: the trace
			// cache quarantines them and records the cell again.
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadCaptureFileFS(OS, path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("file read error %v is not ErrCorrupt", err)
			}
		})
	}
	// Sanity: the unmutated rebuild is accepted, so the rejections above
	// come from the mutations and not from the test's framing.
	if _, err := ReadCapture(bytes.NewReader(rebuild(good))); err != nil {
		t.Fatalf("rebuild of unmutated sections rejected: %v", err)
	}
	// The encoder refuses to write a header whose core count the streams
	// contradict.
	c := testCapture(t)
	c.Header.Cores = 4
	if _, err := c.WriteTo(io.Discard); err == nil || !strings.Contains(err.Error(), "header names 4 cores, recorder has 2") {
		t.Fatalf("encoding a 4-core header over 2 streams: err %v, want a refusal", err)
	}
}
