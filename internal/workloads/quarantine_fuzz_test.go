package workloads

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doppelganger/internal/approx"
	"doppelganger/internal/memdata"
	"doppelganger/internal/trace"
)

// FuzzQuarantineExactlyOnce is the recovery-routing property: any bytes the
// capture decoder rejects — garbage, truncations, torn writes, and also
// valid captures recorded under a different identity — must route to the
// quarantine exactly once. The file leaves the trace directory on the first
// load (so the caller re-records), and a second load is a plain miss: no
// re-quarantine, no loop, no second copy of the evidence.
func FuzzQuarantineExactlyOnce(f *testing.F) {
	// The identity the loader wants; no seed carries it, so even a valid
	// capture is stale on arrival.
	const wantKey = "fuzz/identity/the-capture-never-has"

	seedCapture := func(configKey string) {
		ann, err := approx.NewAnnotations(
			approx.Region{Name: "x", Start: 0x1000, End: 0x2000, Type: memdata.F32, Min: -1, Max: 1})
		if err != nil {
			f.Fatal(err)
		}
		c := &trace.Capture{
			Header:      trace.FileHeader{Benchmark: "b", Scale: 0.5, Cores: 2, Seed: 1, ConfigKey: configKey},
			Annotations: ann,
			InitialMem:  memdata.NewStore(),
			Recorder:    trace.NewRecorder(2),
			Output:      []float64{1, -0.5},
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()*2/3]) // torn write
	}
	seedCapture("some/other/identity") // decodes fine, stale
	f.Add([]byte{})
	f.Add([]byte("DGTC"))
	f.Add([]byte("DGTC\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\xff"))
	f.Add([]byte("not a capture at all"))

	countQuarantined := func(t *testing.T, dir string) int {
		ents, err := os.ReadDir(filepath.Join(dir, trace.QuarantineDir))
		if os.IsNotExist(err) {
			return 0
		}
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".dgt") {
				n++
			}
		}
		return n
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "cell.dgt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, outcome, err := loadCaptureRecover(trace.OS, dir, path, wantKey, 2, false)
		if outcome == loadOK {
			// The fuzzer forged a valid capture carrying wantKey: a legitimate
			// hit, nothing to quarantine. (Practically unreachable — the key
			// appears in no seed — but not a property violation.)
			if c == nil {
				t.Fatal("loadOK with a nil capture")
			}
			return
		}
		if outcome != loadQuarantined {
			t.Fatalf("rejected bytes routed to %v (err %v), want loadQuarantined", outcome, err)
		}
		if err == nil {
			t.Fatal("loadQuarantined with a nil error")
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Error("condemned file still present after quarantine")
		}
		if n := countQuarantined(t, dir); n != 1 {
			t.Errorf("first load quarantined %d files, want exactly 1", n)
		}
		// Second load: the slot is simply empty now — the caller re-records.
		// A second quarantine here would be the re-record loop the design
		// forbids.
		c2, outcome2, err2 := loadCaptureRecover(trace.OS, dir, path, wantKey, 2, false)
		if c2 != nil || outcome2 != loadMiss || err2 != nil {
			t.Fatalf("second load = (%v, %v, %v), want (nil, loadMiss, nil)", c2, outcome2, err2)
		}
		if n := countQuarantined(t, dir); n != 1 {
			t.Errorf("second load changed the quarantine to %d files: not exactly-once", n)
		}
	})
}
