package trace

import (
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestVerifyModeSpellings pins the flag vocabulary: every mode round-trips
// through its String spelling, unknown spellings are rejected with a
// message that lists the legal ones, and an out-of-range mode renders a
// debuggable placeholder instead of lying.
func TestVerifyModeSpellings(t *testing.T) {
	for _, m := range []VerifyMode{VerifyOff, VerifyOpen, VerifyFull} {
		got, err := ParseVerifyMode(m.String())
		if err != nil {
			t.Fatalf("ParseVerifyMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("ParseVerifyMode(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if _, err := ParseVerifyMode("paranoid"); err == nil || !strings.Contains(err.Error(), "off, open or full") {
		t.Errorf("bad spelling error = %v, want the legal spellings listed", err)
	}
	if s := VerifyMode(9).String(); s != "VerifyMode(9)" {
		t.Errorf("out-of-range String() = %q", s)
	}
}

// TestFileDigestIdentity proves the cheap preamble-only digest is exactly
// the CRC64 of the body the writer computed — the key DecodedCache files a
// capture under — and that damaged or unreadable preambles classify the
// same way the full reader would.
func TestFileDigestIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.dgt")
	if err := testCapture(t).WriteFileFS(OS, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := crc64.Checksum(raw[16:], crcTable)
	got, err := FileDigestFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("FileDigestFS = %016x, want body CRC64 %016x", got, want)
	}
	if got != binary.LittleEndian.Uint64(raw[8:16]) {
		t.Error("digest does not come from the preamble bytes")
	}

	// Damage classification: every preamble corruption is quarantineable;
	// an I/O-path failure is not.
	corrupt := func(name string, mutate func(b []byte)) string {
		b := append([]byte(nil), raw...)
		mutate(b)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	badMagic := corrupt("magic.dgt", func(b []byte) { b[0] = 'X' })
	badVersion := corrupt("version.dgt", func(b []byte) { binary.LittleEndian.PutUint16(b[4:], CaptureVersion+1) })
	badFlags := corrupt("flags.dgt", func(b []byte) { binary.LittleEndian.PutUint16(b[6:], 0x8000) })
	tiny := filepath.Join(dir, "tiny.dgt")
	if err := os.WriteFile(tiny, raw[:7], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{badMagic, badVersion, badFlags, tiny} {
		if _, err := FileDigestFS(OS, p); !IsQuarantineable(err) {
			t.Errorf("FileDigestFS(%s) err = %v, want quarantineable", filepath.Base(p), err)
		}
		// The open-mode verifier must reach the same verdict via
		// checkPreamble.
		if err := VerifyFile(OS, p, VerifyOpen); !IsQuarantineable(err) {
			t.Errorf("VerifyFile(%s, open) err = %v, want quarantineable", filepath.Base(p), err)
		}
	}
	unavailable := NewChaosFS(11)
	unavailable.OpenErr = 1
	if _, err := FileDigestFS(unavailable, path); err == nil || IsQuarantineable(err) {
		t.Errorf("open failure classified as corruption: %v", err)
	}
}

// TestReadCaptureOutputOnly proves the output-only reader verifies the
// whole file but materializes just the sections cheap consumers need.
func TestReadCaptureOutputOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.dgt")
	want := testCapture(t)
	if err := want.WriteFileFS(OS, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCaptureOutputFileFS(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Errorf("output-only read output = %v, want %v", got.Output, want.Output)
	}
	if got.Header.ConfigKey != want.Header.ConfigKey {
		t.Errorf("output-only read header key = %q, want %q", got.Header.ConfigKey, want.Header.ConfigKey)
	}
}

// TestChaosFSPassThrough pins the boring half of the chaos filesystem: with
// every fault probability at zero it must behave exactly like the real OS —
// including the directory operations the store's janitor leans on — and
// inject nothing, so a soak's fault counts are attributable entirely to the
// armed probabilities. Latency is set non-zero to exercise the delay path.
func TestChaosFSPassThrough(t *testing.T) {
	fsys := NewChaosFS(1)
	fsys.Latency = 100 * time.Microsecond
	sub := filepath.Join(t.TempDir(), "a", "b")
	if err := fsys.MkdirAll(sub); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sub, "c.dgt")
	if err := testCapture(t).WriteFileFS(fsys, path); err != nil {
		t.Fatal(err)
	}
	if fi, err := fsys.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("Stat = %v, %v", fi, err)
	}
	ents, err := fsys.ReadDir(sub)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %d entries, %v; want the capture alone", len(ents), err)
	}
	if err := fsys.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(fsys, path, VerifyFull); err != nil {
		t.Fatalf("capture written through quiet chaos fs does not verify: %v", err)
	}
	if err := fsys.Remove(path); err != nil {
		t.Fatal(err)
	}
	if n := fsys.Counts().Total(); n != 0 {
		t.Errorf("quiet chaos fs injected %d faults", n)
	}
}

// TestOpenStoreDirUncreatable pins OpenStore's first failure mode: if the
// directory itself cannot come into existence there is no store, and the
// error names the directory.
func TestOpenStoreDirUncreatable(t *testing.T) {
	fsys := NewChaosFS(2)
	fsys.ENOSPCWindow(1)
	dir := filepath.Join(t.TempDir(), "traces")
	if _, err := OpenStore(fsys, dir, VerifyOpen); err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("OpenStore over full disk = %v, want error naming %s", err, dir)
	}
}

// TestStoreNilClose: Close on a nil store is a harmless no-op, so callers
// can defer it before checking OpenStore's error.
func TestStoreNilClose(t *testing.T) {
	var s *Store
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineReasonBestEffort proves the forensics are sacrificial: when
// the disk refuses the reason file's bytes, the quarantine itself still
// succeeds (the condemned capture is out of the replay path, which is the
// part correctness depends on) and no temp debris is left behind.
func TestQuarantineReasonBestEffort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.dgt")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := NewChaosFS(3)
	fsys.WriteErr = 1
	dest, err := Quarantine(fsys, dir, path, "digest mismatch")
	if err != nil || dest == "" {
		t.Fatalf("Quarantine = %q, %v", dest, err)
	}
	if _, err := os.Stat(dest); err != nil {
		t.Errorf("condemned file not moved: %v", err)
	}
	if _, err := os.Stat(dest + ".reason"); !os.IsNotExist(err) {
		t.Errorf("reason file exists despite write faults: %v", err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, QuarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp debris in quarantine: %s", e.Name())
		}
	}

	// If even the quarantine directory cannot be created, Quarantine fails
	// loudly — the caller counts the file unreadable and degrades.
	blocked := NewChaosFS(4)
	blocked.ENOSPCWindow(1)
	src2 := filepath.Join(dir, "bad2.dgt")
	if err := os.WriteFile(src2, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Quarantine(blocked, dir, src2, "x"); err == nil || !strings.Contains(err.Error(), "quarantine dir") {
		t.Errorf("Quarantine with uncreatable dir = %v", err)
	}
}
