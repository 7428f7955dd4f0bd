package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"math"
	"path/filepath"

	"doppelganger/internal/approx"
	"doppelganger/internal/memdata"
)

// Capture file format "DGTC" (DoppelGänger Trace Capture), version 1.
//
//	preamble (16 bytes, little-endian):
//	  magic   [4]byte  "DGTC"
//	  version uint16   (1)
//	  flags   uint16   (reserved, 0)
//	  digest  uint64   CRC64-ECMA over every byte after the preamble
//	sections, each:
//	  id      uint8
//	  length  uvarint  (payload bytes)
//	  payload [length]byte
//	  crc     uint32   CRC32-IEEE over payload
//	section order is fixed: header, annotations, memory, traces, order,
//	output, end. The end section has an empty payload and terminates the
//	file; trailing bytes after it are rejected.
//
// Payloads (all integers uvarint unless sized, floats as IEEE-754 bits):
//
//	header:      benchLen+bytes, scaleBits u64, cores, seed u64,
//	             keyLen+bytes (ConfigKey: the full cell identity string)
//	annotations: count, then per region: nameLen+bytes, start, end,
//	             type u8, minBits u64, maxBits u64
//	memory:      count, then per block (ascending block number): first
//	             block number absolute, later ones as gap from the
//	             previous (>= 1), then 64 raw bytes
//	traces:      cores, then per core: count, then per record:
//	             flags u8 (bit0 write, bit1 approx, bits 2.. size),
//	             addr zigzag-delta from the previous record's addr,
//	             gap, and (writes only) val
//	order:       count (== total records), then one core id per access
//	output:      count, then count × u64 float bits
//
// The decoder never trusts a length or count from the file. The file is
// read once into one buffer; every section length is checked against the
// bytes in that buffer, and every in-payload count against the bytes of
// its payload, before anything proportional to it is allocated.
const (
	captureMagic   = "DGTC"
	CaptureVersion = 1
)

// Section ids, in required file order.
const (
	secHeader = iota + 1
	secAnnotations
	secMemory
	secTraces
	secOrder
	secOutput
	secEnd = 0xFF
)

// Decoder hardening caps (initial allocation bounds, not format limits).
const (
	maxNameLen   = 4096
	maxRegions   = 1 << 16
	maxCores     = 1024
	maxSectionSz = 1 << 31 // sanity bound on a capture, and so on any section in it
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// FileHeader identifies what a capture file holds and which configuration
// produced it. ConfigKey is the full cell identity (benchmark, scale,
// cores, organization, seeds, ...): a reader that derives a different
// identity for the same file must treat the capture as stale.
type FileHeader struct {
	Benchmark string
	Scale     float64
	Cores     int
	Seed      uint64
	ConfigKey string
}

// Capture is everything one recorded functional run persists: enough to
// replay the run bit-identically (initial image + annotations + globally
// ordered access stream) and to serve its output without replaying.
type Capture struct {
	Header      FileHeader
	Annotations *approx.Annotations
	InitialMem  *memdata.Store
	Recorder    *Recorder
	Output      []float64

	// FileCRC is in-memory identity metadata, populated by the decoder and
	// by WriteTo — it is derived from the serialized bytes, never stored in
	// them. It is the preamble's whole-file CRC64-ECMA (the same value
	// FileDigestFS reads from the first 16 bytes, so a cheap preamble probe
	// can be matched against an already-decoded capture).
	FileCRC uint64
}

// --- encoding ---

type sectionWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *sectionWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *sectionWriter) varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *sectionWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], v)
	w.buf.Write(w.tmp[:8])
}

func (w *sectionWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

// appendSection frames one section (id, length, payload, crc) onto out.
func appendSection(out *bytes.Buffer, id byte, payload []byte) {
	out.WriteByte(id)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	out.Write(tmp[:n])
	out.Write(payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	out.Write(crc[:])
}

// encode renders the capture's section stream (everything after the
// preamble). The byte stream is deterministic: memory blocks are emitted in
// ascending address order and every other collection is already ordered.
func (c *Capture) encode() ([]byte, error) {
	if c.Recorder == nil || c.InitialMem == nil || c.Annotations == nil {
		return nil, fmt.Errorf("trace: capture is missing recorder, memory image or annotations")
	}
	if len(c.Recorder.Order) != c.Recorder.Len() {
		return nil, fmt.Errorf("trace: capture recorder has no global-order index (%d entries for %d records)",
			len(c.Recorder.Order), c.Recorder.Len())
	}
	if len(c.Recorder.Cores) > maxCores {
		return nil, fmt.Errorf("trace: capture has %d cores (max %d)", len(c.Recorder.Cores), maxCores)
	}
	if len(c.Recorder.Cores) != c.Header.Cores {
		return nil, fmt.Errorf("trace: capture header names %d cores, recorder has %d", c.Header.Cores, len(c.Recorder.Cores))
	}
	var out bytes.Buffer
	var w sectionWriter

	w.str(c.Header.Benchmark)
	w.u64(math.Float64bits(c.Header.Scale))
	w.uvarint(uint64(c.Header.Cores))
	w.u64(c.Header.Seed)
	w.str(c.Header.ConfigKey)
	appendSection(&out, secHeader, w.buf.Bytes())
	w.buf.Reset()

	regions := c.Annotations.Regions()
	w.uvarint(uint64(len(regions)))
	for _, rg := range regions {
		w.str(rg.Name)
		w.uvarint(uint64(rg.Start))
		w.uvarint(uint64(rg.End))
		w.buf.WriteByte(byte(rg.Type))
		w.u64(math.Float64bits(rg.Min))
		w.u64(math.Float64bits(rg.Max))
	}
	appendSection(&out, secAnnotations, w.buf.Bytes())
	w.buf.Reset()

	// Memory image in ascending block order: ForEachBlock iterates the
	// arena's page directory sorted, so identical stores yield identical
	// bytes (unlike the legacy bundle's map-order walk).
	nblocks := 0
	c.InitialMem.ForEachBlock(func(memdata.Addr, *memdata.Block) { nblocks++ })
	w.uvarint(uint64(nblocks))
	prevPN := uint64(0)
	first := true
	c.InitialMem.ForEachBlock(func(a memdata.Addr, blk *memdata.Block) {
		pn := uint64(a) >> memdata.OffsetBits
		if first {
			w.uvarint(pn)
			first = false
		} else {
			w.uvarint(pn - prevPN)
		}
		prevPN = pn
		w.buf.Write(blk[:])
	})
	appendSection(&out, secMemory, w.buf.Bytes())
	w.buf.Reset()

	w.uvarint(uint64(len(c.Recorder.Cores)))
	for _, t := range c.Recorder.Cores {
		w.uvarint(uint64(len(t)))
		prev := uint64(0)
		for i := range t {
			rec := &t[i]
			flags := uint64(rec.Size) << 2
			if rec.Write {
				flags |= 1
			}
			if rec.Approx {
				flags |= 2
			}
			w.uvarint(flags)
			w.varint(int64(uint64(rec.Addr)) - int64(prev))
			prev = uint64(rec.Addr)
			w.uvarint(uint64(rec.Gap))
			if rec.Write {
				w.uvarint(rec.Val)
			}
		}
	}
	appendSection(&out, secTraces, w.buf.Bytes())
	w.buf.Reset()

	w.uvarint(uint64(len(c.Recorder.Order)))
	for _, core := range c.Recorder.Order {
		w.uvarint(uint64(core))
	}
	appendSection(&out, secOrder, w.buf.Bytes())
	w.buf.Reset()

	w.uvarint(uint64(len(c.Output)))
	for _, v := range c.Output {
		w.u64(math.Float64bits(v))
	}
	appendSection(&out, secOutput, w.buf.Bytes())
	w.buf.Reset()

	appendSection(&out, secEnd, nil)
	return out.Bytes(), nil
}

// WriteTo serializes the capture. The whole section stream is buffered
// first so the preamble can carry its content digest.
func (c *Capture) WriteTo(w io.Writer) (int64, error) {
	body, err := c.encode()
	if err != nil {
		return 0, err
	}
	var pre [16]byte
	copy(pre[:4], captureMagic)
	binary.LittleEndian.PutUint16(pre[4:], CaptureVersion)
	binary.LittleEndian.PutUint16(pre[6:], 0)
	c.FileCRC = crc64.Checksum(body, crcTable)
	binary.LittleEndian.PutUint64(pre[8:], c.FileCRC)
	n, err := w.Write(pre[:])
	if err != nil {
		return int64(n), err
	}
	m, err := w.Write(body)
	return int64(n + m), err
}

// WriteFile persists the capture atomically on the real filesystem; see
// WriteFileFS for the commit protocol.
func (c *Capture) WriteFile(path string) error {
	return c.WriteFileFS(OS, path)
}

// WriteFileFS persists the capture atomically and durably: the bytes land
// in a temp file in the destination directory, are fsynced, and only then
// renamed into place — so a crash or failure mid-write can never leave a
// torn file where a consumer expects a capture. After the rename the parent
// directory is fsynced too: rename makes the capture visible, the directory
// sync makes it durable, and only after both is the capture committed (a
// crash between them may lose the file, never corrupt it).
func (c *Capture) WriteFileFS(fsys FS, path string) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("trace: capture %s: %w", path, err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return fmt.Errorf("trace: capture %s: %w", path, err)
	}
	if _, err := c.WriteTo(tmp); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return fmt.Errorf("trace: capture %s: %w", path, err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return fmt.Errorf("trace: capture %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("trace: capture %s: dir sync: %w", path, err)
	}
	return nil
}

// --- decoding ---

// readAll reads r to EOF into one buffer. size is the expected length
// (from FS.Stat, or what the reader reports about itself): when it is
// right, the buffer is allocated once at exactly that size. It is only a
// hint. A reader that ends sooner yields the bytes it delivered, so a
// truncated capture fails to decode; one that goes on doubles the buffer
// until EOF. More than maxSectionSz bytes are refused.
func readAll(r io.Reader, size int64) ([]byte, error) {
	size = min(max(size, 0), maxSectionSz)
	// The spare byte takes the read that reports EOF, so a right size never
	// grows the buffer.
	buf := make([]byte, 0, size+1)
	for {
		if len(buf) == cap(buf) {
			if len(buf) > maxSectionSz {
				return nil, fmt.Errorf("longer than %d bytes", int64(maxSectionSz))
			}
			buf = append(make([]byte, 0, min(max(2*cap(buf), 512), maxSectionSz+1)), buf...)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// payload is a bounds-checked cursor over one section's bytes.
type payload struct {
	b   []byte
	off int
}

func (p *payload) remaining() int { return len(p.b) - p.off }

func (p *payload) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated uvarint at offset %d", p.off)
	}
	p.off += n
	return v, nil
}

// uvarintAt decodes the uvarint at b[off:] and returns it with the offset
// just past it, or next < 0 when b[off:] holds no complete uvarint. The
// record and order loops decode with it on a local offset, and take the
// one-byte case (nearly every field) without calling binary.Uvarint.
func uvarintAt(b []byte, off int) (v uint64, next int) {
	if off < len(b) {
		if c := b[off]; c < 0x80 {
			return uint64(c), off + 1
		}
	}
	return uvarintAtLong(b, off)
}

// uvarintAtLong is uvarintAt's multi-byte case, kept out of line so the
// one-byte path stays short.
func uvarintAtLong(b []byte, off int) (uint64, int) {
	if off >= len(b) {
		return 0, -1
	}
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, -1
	}
	return v, off + n
}

func (p *payload) u64() (uint64, error) {
	if p.remaining() < 8 {
		return 0, fmt.Errorf("truncated u64 at offset %d", p.off)
	}
	v := binary.LittleEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v, nil
}

func (p *payload) byte() (byte, error) {
	if p.remaining() < 1 {
		return 0, fmt.Errorf("truncated byte at offset %d", p.off)
	}
	b := p.b[p.off]
	p.off++
	return b, nil
}

func (p *payload) bytes(n uint64) ([]byte, error) {
	if uint64(p.remaining()) < n {
		return nil, fmt.Errorf("claimed %d bytes with %d remaining", n, p.remaining())
	}
	b := p.b[p.off : p.off+int(n)]
	p.off += int(n)
	return b, nil
}

func (p *payload) str(cap uint64, what string) (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if n > cap {
		return "", fmt.Errorf("%s length %d exceeds cap %d", what, n, cap)
	}
	b, err := p.bytes(n)
	if err != nil {
		return "", fmt.Errorf("%s: %w", what, err)
	}
	return string(b), nil
}

func (p *payload) done() error {
	if p.off != len(p.b) {
		return fmt.Errorf("%d trailing bytes", len(p.b)-p.off)
	}
	return nil
}

// readCapture decodes a capture stream written by WriteTo, verifying the
// per-section CRCs and the whole-file digest. Every failure names what was
// wrong and where; no input makes it panic or allocate unboundedly. It
// checks the preamble, then reads the rest of the capture (size bytes in
// all, if the hint is right) into one buffer and decodes it.
func readCapture(r io.Reader, size int64, outputOnly bool) (*Capture, error) {
	var pre [16]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("trace: capture preamble: %w", err)
	}
	if err := checkPreamble(pre); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	body, err := readAll(r, size-int64(len(pre)))
	if err != nil {
		return nil, fmt.Errorf("trace: capture body: %w", err)
	}
	return decodeCapture(preambleDigest(pre), body, outputOnly)
}

// sectionOrder is the required order of section ids.
var sectionOrder = [...]byte{secHeader, secAnnotations, secMemory, secTraces, secOrder, secOutput, secEnd}

// decodeCapture decodes everything after a capture's preamble, held in buf;
// digest is the whole-file CRC64 the preamble claims. Everything that needs
// no decoding is checked first, on buf itself and without copying: each
// section's frame (id, and length against the bytes that are actually
// there) and CRC32, the digest, and the absence of trailing bytes. A
// truncated, torn or corrupted file is therefore rejected before anything
// is allocated for its contents. Only then are the section bodies decoded,
// each collection allocated once at a count its payload has been checked
// to hold.
func decodeCapture(digest uint64, buf []byte, outputOnly bool) (*Capture, error) {
	var bodies [len(sectionOrder)][]byte
	off := 0
	for i, wantID := range sectionOrder {
		if off >= len(buf) {
			return nil, fmt.Errorf("trace: capture truncated before section %d: %w", wantID, io.ErrUnexpectedEOF)
		}
		if id := buf[off]; id != wantID {
			return nil, fmt.Errorf("trace: capture section %d out of order (want %d)", id, wantID)
		}
		length, n := binary.Uvarint(buf[off+1:])
		if n <= 0 {
			return nil, fmt.Errorf("trace: capture section %d length: truncated or overlong uvarint", wantID)
		}
		if length > maxSectionSz {
			return nil, fmt.Errorf("trace: capture section %d: implausible section length %d", wantID, length)
		}
		start := off + 1 + n
		if have := uint64(len(buf) - start); have < length+4 {
			return nil, fmt.Errorf("trace: capture section %d truncated: claims %d payload bytes + crc, %d present: %w",
				wantID, length, have, io.ErrUnexpectedEOF)
		}
		end := start + int(length)
		body := buf[start:end]
		if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(buf[end:]); got != want {
			return nil, fmt.Errorf("trace: capture section %d crc mismatch (got %08x, want %08x)", wantID, got, want)
		}
		if wantID == secEnd && length != 0 {
			return nil, fmt.Errorf("trace: capture section %d: non-empty end section", wantID)
		}
		bodies[i] = body
		off = end + 4
	}
	if got := crc64.Checksum(buf[:off], crcTable); got != digest {
		return nil, fmt.Errorf("trace: capture digest mismatch (got %016x, want %016x): file corrupt or tampered", got, digest)
	}
	if off != len(buf) {
		return nil, fmt.Errorf("trace: trailing bytes after capture end section")
	}

	c := &Capture{FileCRC: digest}
	for i, id := range sectionOrder {
		if outputOnly && (id == secMemory || id == secTraces || id == secOrder) {
			continue // verified above, never materialized
		}
		p := &payload{b: bodies[i]}
		var err error
		switch id {
		case secHeader:
			err = decodeHeader(p, &c.Header)
		case secAnnotations:
			c.Annotations, err = decodeAnnotations(p)
		case secMemory:
			c.InitialMem, err = decodeMemory(p)
		case secTraces:
			// Consumers match the header's core count against their own
			// and then simulate that many cores, so a header that
			// disagrees with the streams would replay part of the run, or
			// cores that never ran.
			if c.Recorder, err = decodeTraces(p); err == nil && len(c.Recorder.Cores) != c.Header.Cores {
				err = fmt.Errorf("traces section has %d cores, header names %d", len(c.Recorder.Cores), c.Header.Cores)
			}
		case secOrder:
			err = decodeOrder(p, c.Recorder)
		case secOutput:
			c.Output, err = decodeOutput(p)
		}
		if err == nil {
			err = p.done()
		}
		if err != nil {
			return nil, fmt.Errorf("trace: capture section %d: %w", id, err)
		}
	}
	return c, nil
}

// ReadCaptureFile opens and decodes one capture file.
func ReadCaptureFile(path string) (*Capture, error) {
	return readCaptureFile(OS, path, false)
}

// ReadCaptureFileFS is ReadCaptureFile on an injected filesystem.
func ReadCaptureFileFS(fsys FS, path string) (*Capture, error) {
	return readCaptureFile(fsys, path, false)
}

// ReadCaptureOutputFileFS decodes only a capture file's header,
// annotations and output vector. The memory, trace and order sections are
// still fully read and verified (section CRCs and the whole-file digest),
// but nothing proportional to their contents is materialized — the cheap
// path for consumers that serve a capture's result without replaying it.
// The cross-section checks against the streams are necessarily skipped.
func ReadCaptureOutputFileFS(fsys FS, path string) (*Capture, error) {
	return readCaptureFile(fsys, path, true)
}

// FileDigestFS reads just a capture file's 16-byte preamble and returns its
// whole-file CRC64-ECMA digest, the key DecodedCache files a capture under.
// The magic, version and reserved flags are verified, but the sections are
// not read, and the digest is NOT checked against the body; consumers that
// replay the capture still go through the full decode's verification.
// Decode failures (bad magic, version, flags, short preamble) wrap
// ErrCorrupt; failures of the I/O path itself (open, device read errors) do
// not. perfbench is its last caller.
func FileDigestFS(fsys FS, path string) (uint64, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	tr := &trackReader{r: f}
	var pre [16]byte
	if _, err := io.ReadFull(tr, pre[:]); err != nil {
		if tr.err != nil {
			return 0, fmt.Errorf("%s: trace: capture preamble: %w", path, tr.err)
		}
		return 0, fmt.Errorf("%s: trace: %w: capture preamble: %v", path, ErrCorrupt, err)
	}
	if string(pre[:4]) != captureMagic {
		return 0, fmt.Errorf("%s: trace: %w: bad capture magic %q (want %q)", path, ErrCorrupt, pre[:4], captureMagic)
	}
	if v := binary.LittleEndian.Uint16(pre[4:]); v != CaptureVersion {
		return 0, fmt.Errorf("%s: trace: %w: unsupported capture version %d (this reader handles %d)", path, ErrCorrupt, v, CaptureVersion)
	}
	if fl := binary.LittleEndian.Uint16(pre[6:]); fl != 0 {
		return 0, fmt.Errorf("%s: trace: %w: unknown capture flags %#x (reserved, must be zero)", path, ErrCorrupt, fl)
	}
	return binary.LittleEndian.Uint64(pre[8:]), nil
}

// checkPreamble validates a preamble's magic, version and reserved flags.
func checkPreamble(pre [16]byte) error {
	if string(pre[:4]) != captureMagic {
		return fmt.Errorf("bad capture magic %q (want %q)", pre[:4], captureMagic)
	}
	if v := binary.LittleEndian.Uint16(pre[4:]); v != CaptureVersion {
		return fmt.Errorf("unsupported capture version %d (this reader handles %d)", v, CaptureVersion)
	}
	if fl := binary.LittleEndian.Uint16(pre[6:]); fl != 0 {
		return fmt.Errorf("unknown capture flags %#x (reserved, must be zero)", fl)
	}
	return nil
}

// preambleDigest extracts the whole-file CRC64 the preamble claims.
func preambleDigest(pre [16]byte) uint64 { return binary.LittleEndian.Uint64(pre[8:]) }

// trackReader remembers the last non-EOF error the underlying reader
// returned. The decoder cannot tell a truncated file (reads hit EOF early —
// the bytes on disk are wrong: corrupt) from a failing device (reads error
// out — the bytes may be fine: unavailable); the tracked error makes the
// distinction at the file level.
type trackReader struct {
	r   io.Reader
	err error
}

func (t *trackReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err != nil && err != io.EOF {
		t.err = err
	}
	return n, err
}

func readCaptureFile(fsys FS, path string, outputOnly bool) (*Capture, error) {
	f, err := fsys.Open(path)
	if err != nil {
		// Open errors pass through unclassified: os.ErrNotExist is a cache
		// miss, anything else is the I/O path failing, not the file.
		return nil, err
	}
	defer f.Close()
	// The size only sizes the buffer; readAll stays correct if it is wrong
	// (say, the capture was replaced between Open and Stat).
	var size int64
	if fi, err := fsys.Stat(path); err == nil {
		size = fi.Size()
	}
	tr := &trackReader{r: f}
	c, err := readCapture(tr, size, outputOnly)
	if err != nil {
		if tr.err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		// Every byte came off the disk successfully and the decoder still
		// rejected them: the file itself is damaged.
		return nil, fmt.Errorf("%s: %w: %w", path, ErrCorrupt, err)
	}
	return c, nil
}

func decodeHeader(p *payload, h *FileHeader) error {
	var err error
	if h.Benchmark, err = p.str(maxNameLen, "benchmark name"); err != nil {
		return err
	}
	bits, err := p.u64()
	if err != nil {
		return err
	}
	h.Scale = math.Float64frombits(bits)
	cores, err := p.uvarint()
	if err != nil {
		return err
	}
	if cores > maxCores {
		return fmt.Errorf("implausible core count %d", cores)
	}
	h.Cores = int(cores)
	if h.Seed, err = p.u64(); err != nil {
		return err
	}
	h.ConfigKey, err = p.str(maxNameLen, "config key")
	return err
}

func decodeAnnotations(p *payload) (*approx.Annotations, error) {
	count, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if count > maxRegions {
		return nil, fmt.Errorf("implausible region count %d", count)
	}
	// Each region needs at least name-len + start + end + type + 16 float
	// bytes; checking against the payload stops a hostile count before the
	// slice is committed.
	if count*20 > uint64(p.remaining()) {
		return nil, fmt.Errorf("region count %d exceeds payload (%d bytes)", count, p.remaining())
	}
	regions := make([]approx.Region, count)
	for i := range regions {
		name, err := p.str(maxNameLen, "region name")
		if err != nil {
			return nil, err
		}
		start, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		end, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if start > math.MaxUint32 || end > math.MaxUint32 {
			return nil, fmt.Errorf("region %q bounds exceed the 32-bit address space", name)
		}
		typ, err := p.byte()
		if err != nil {
			return nil, err
		}
		if memdata.ElemType(typ) > memdata.F64 {
			return nil, fmt.Errorf("region %q has unknown element type %d", name, typ)
		}
		minBits, err := p.u64()
		if err != nil {
			return nil, err
		}
		maxBits, err := p.u64()
		if err != nil {
			return nil, err
		}
		regions[i] = approx.Region{
			Name:  name,
			Start: memdata.Addr(start),
			End:   memdata.Addr(end),
			Type:  memdata.ElemType(typ),
			Min:   math.Float64frombits(minBits),
			Max:   math.Float64frombits(maxBits),
		}
	}
	ann, err := approx.NewAnnotations(regions...)
	if err != nil {
		return nil, fmt.Errorf("annotations invalid: %w", err)
	}
	return ann, nil
}

func decodeMemory(p *payload) (*memdata.Store, error) {
	count, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	// A block costs at least 65 payload bytes, so the count is verifiable
	// up front without trusting it.
	if count > uint64(p.remaining())/(memdata.BlockSize+1)+1 {
		return nil, fmt.Errorf("block count %d exceeds payload (%d bytes)", count, p.remaining())
	}
	st := memdata.NewStore()
	pn := uint64(0)
	for i := uint64(0); i < count; i++ {
		d, err := p.uvarint()
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		if i == 0 {
			pn = d
		} else {
			if d == 0 {
				return nil, fmt.Errorf("block %d: zero gap (blocks must ascend)", i)
			}
			pn += d
		}
		if pn > math.MaxUint32>>memdata.OffsetBits {
			return nil, fmt.Errorf("block %d: address beyond the 32-bit space", i)
		}
		raw, err := p.bytes(memdata.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		copy(st.Block(memdata.Addr(pn << memdata.OffsetBits))[:], raw)
	}
	return st, nil
}

func decodeTraces(p *payload) (*Recorder, error) {
	cores, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if cores > maxCores {
		return nil, fmt.Errorf("implausible core count %d", cores)
	}
	rec := NewRecorder(int(cores))
	for c := 0; c < int(cores); c++ {
		count, err := p.uvarint()
		if err != nil {
			return nil, fmt.Errorf("core %d count: %w", c, err)
		}
		// A record is at least 3 bytes (flags + addr delta + gap), so the
		// stream can be allocated once at the verified count.
		if count > uint64(p.remaining())/3+1 {
			return nil, fmt.Errorf("core %d: record count %d exceeds payload (%d bytes)", c, count, p.remaining())
		}
		t := make(Trace, count)
		b, off, prev := p.b, p.off, uint64(0)
		for i := range t {
			at := off
			var flags, zigzag, gap uint64
			if flags, off = uvarintAt(b, off); off >= 0 {
				if zigzag, off = uvarintAt(b, off); off >= 0 {
					gap, off = uvarintAt(b, off)
				}
			}
			if off < 0 {
				return nil, fmt.Errorf("core %d record %d: truncated at offset %d", c, i, at)
			}
			if flags>>2 > 0xFF {
				return nil, fmt.Errorf("core %d record %d: size %d exceeds a byte", c, i, flags>>2)
			}
			delta := int64(zigzag >> 1) // zigzag-decoded, as binary.Varint does
			if zigzag&1 != 0 {
				delta = ^delta
			}
			addr := int64(prev) + delta
			if addr < 0 || addr > math.MaxUint32 {
				return nil, fmt.Errorf("core %d record %d: address delta leaves the 32-bit space", c, i)
			}
			prev = uint64(addr)
			if gap > math.MaxUint32 {
				return nil, fmt.Errorf("core %d record %d: gap %d exceeds 32 bits", c, i, gap)
			}
			r := &t[i]
			r.Addr, r.Gap, r.Size = memdata.Addr(addr), uint32(gap), uint8(flags>>2)
			r.Write, r.Approx = flags&1 != 0, flags&2 != 0
			if r.Write {
				if r.Val, off = uvarintAt(b, off); off < 0 {
					return nil, fmt.Errorf("core %d record %d: truncated at offset %d", c, i, at)
				}
			}
		}
		p.off = off
		rec.Cores[c] = t
	}
	return rec, nil
}

func decodeOrder(p *payload, rec *Recorder) error {
	count, err := p.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(p.remaining())+1 {
		return fmt.Errorf("order count %d exceeds payload (%d bytes)", count, p.remaining())
	}
	if rec == nil {
		return fmt.Errorf("order section before traces")
	}
	if count != uint64(rec.Len()) {
		return fmt.Errorf("order count %d does not match %d recorded accesses", count, rec.Len())
	}
	// The count matches the streams, which were bounded by their own
	// payload, so the index is allocated once at its final length.
	order := make([]uint16, count)
	seen := make([]int, len(rec.Cores))
	b, off := p.b, p.off
	for i := range order {
		core, next := uvarintAt(b, off)
		if next < 0 {
			return fmt.Errorf("order entry %d: truncated uvarint at offset %d", i, off)
		}
		if core >= uint64(len(rec.Cores)) {
			return fmt.Errorf("order entry %d names core %d of %d", i, core, len(rec.Cores))
		}
		order[i] = uint16(core)
		seen[core]++
		off = next
	}
	p.off = off
	// Cross-section consistency: the index must give every core exactly
	// as many turns as its stream has records.
	for c, n := range seen {
		if n != len(rec.Cores[c]) {
			return fmt.Errorf("order index has %d accesses for core %d, stream has %d", n, c, len(rec.Cores[c]))
		}
	}
	rec.Order = order
	return nil
}

func decodeOutput(p *payload) ([]float64, error) {
	count, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if count*8 > uint64(p.remaining()) {
		return nil, fmt.Errorf("output count %d exceeds payload (%d bytes)", count, p.remaining())
	}
	out := make([]float64, count)
	for i := range out {
		bits, err := p.u64()
		if err != nil {
			return nil, err
		}
		out[i] = math.Float64frombits(bits)
	}
	return out, nil
}
