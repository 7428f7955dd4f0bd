package trace

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"doppelganger/internal/approx"
	"doppelganger/internal/memdata"
)

// FuzzTraceRoundTrip builds a two-core recording from arbitrary bytes and
// demands that its streams and global order come back unchanged through a
// capture's encode and full decode. FuzzTraceFileDecode starts from bytes,
// which rarely get past the checksums; this target reaches every field the
// trace and order sections code. Each 18 input bytes are one access: addr
// u32, val u64, gap u32, size u8 and flags u8 (bit0 write, bit1 approx,
// bit2 core).
func FuzzTraceRoundTrip(f *testing.F) {
	access := func(addr uint32, val uint64, gap uint32, size, flags uint8) []byte {
		b := binary.LittleEndian.AppendUint32(nil, addr)
		b = binary.LittleEndian.AppendUint64(b, val)
		b = binary.LittleEndian.AppendUint32(b, gap)
		return append(b, size, flags)
	}
	f.Add([]byte{})
	f.Add(access(0x1240, 0, 3, 4, 2))
	f.Add(append(access(0xFFFFFFC0, 0xDEADBEEFCAFEBABE, 0, 8, 5), access(0, 1, 0xFFFFFFFF, 255, 1)...))
	f.Add(append(access(0x40, 7, 1, 1, 4), access(0x40, 7, 1, 1, 4)...))
	f.Add(append(access(0xFFFFFFFF, 0, 0, 0, 0), 1, 2, 3)) // trailing partial access ignored

	ann, err := approx.NewAnnotations()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := NewRecorder(2)
		for ; len(data) >= 18; data = data[18:] {
			write, core := data[17]&1 != 0, int(data[17]>>2&1)
			val := binary.LittleEndian.Uint64(data[4:])
			if !write {
				val = 0 // a capture keeps the values of writes only
			}
			rec.Work(core, int(binary.LittleEndian.Uint32(data[12:])))
			rec.Access(core, memdata.Addr(binary.LittleEndian.Uint32(data)), write, int(data[16]), val, data[17]&2 != 0)
		}
		c := &Capture{
			Header:      FileHeader{Benchmark: "b", Cores: 2, ConfigKey: "k"},
			Annotations: ann,
			InitialMem:  memdata.NewStore(),
			Recorder:    rec,
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := ReadCapture(&buf)
		if err != nil {
			t.Fatalf("decode of a freshly encoded capture: %v", err)
		}
		if !slices.Equal(got.Recorder.Order, rec.Order) {
			t.Fatal("global order changed")
		}
		for core, want := range rec.Cores {
			if !slices.Equal(got.Recorder.Cores[core], want) {
				t.Fatalf("core %d stream changed: %+v -> %+v", core, want, got.Recorder.Cores[core])
			}
		}
	})
}

// FuzzTraceFileDecode drives the DGTC capture decoder with arbitrary bytes.
// Hostile headers, truncated or torn files, corrupt CRCs and oversized
// counts must all produce errors — never a panic and never an allocation
// proportional to a lied-about length — and any input the decoder accepts
// must survive a re-encode/re-decode cycle byte-identically.
func FuzzTraceFileDecode(f *testing.F) {
	// Seed with real captures of increasing richness plus the rejection
	// corpus (wrong magic, bare preamble, truncated section).
	seed := func(build func(c *Capture)) {
		ann, err := approx.NewAnnotations(
			approx.Region{Name: "x", Start: 0x1000, End: 0x2000, Type: memdata.F32, Min: -1, Max: 1})
		if err != nil {
			f.Fatal(err)
		}
		c := &Capture{
			Header:      FileHeader{Benchmark: "b", Scale: 0.5, Cores: 2, Seed: 1, ConfigKey: "k"},
			Annotations: ann,
			InitialMem:  memdata.NewStore(),
			Recorder:    NewRecorder(2),
		}
		build(c)
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(func(c *Capture) {})
	seed(func(c *Capture) {
		c.InitialMem.WriteF32(0x1000, 2.5)
		c.InitialMem.WriteU8(0xFFFFFFC0, 9)
		c.Recorder.Work(0, 3)
		c.Recorder.Access(0, 0x1000, false, 4, 0, true)
		c.Recorder.Access(1, 0xFFFFFFC0, true, 1, 9, false)
		c.Output = []float64{1, -0.5}
	})
	f.Add([]byte("XXXX\x01\x00\x00\x00"))
	f.Add([]byte("DGTC"))
	f.Add([]byte("DGTC\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCapture(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode of accepted capture failed: %v", err)
		}
		c2, err := ReadCapture(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of re-encoded capture failed: %v", err)
		}
		var buf2 bytes.Buffer
		if _, err := c2.WriteTo(&buf2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("accepted capture is not byte-stable through decode∘encode")
		}
	})
}
