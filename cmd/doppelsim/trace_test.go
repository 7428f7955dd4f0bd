package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"doppelganger/internal/workloads"
)

// TestSaveTraceReplay records blackscholes with -savetrace and replays the
// file with -replay. The saved file must be the very capture a -trace-dir
// run records for the benchmark's baseline cell, and replaying it against
// the baseline and the split LLC must give the cycle counts the in-process
// -timing comparison reports for the same recording. A one-byte flip must
// make -replay fail as corrupt, and a core count other than the recorded
// one must make it fail naming both counts.
func TestSaveTraceReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs simulations")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "doppelsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(args ...string) (string, error) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		return stdout.String() + stderr.String(), err
	}
	const bench, scale = "blackscholes", "0.02"

	saved := filepath.Join(dir, "b.dgt")
	if out, err := run("-bench", bench, "-scale", scale, "-savetrace", saved); err != nil {
		t.Fatalf("-savetrace: %v\n%s", err, out)
	}
	traceDir := filepath.Join(dir, "traces")
	timing, err := run("-bench", bench, "-scale", scale, "-llc", "split", "-timing", "-trace-dir", traceDir)
	if err != nil {
		t.Fatalf("-timing: %v\n%s", err, timing)
	}
	want, err := os.ReadFile(workloads.CapturePath(traceDir, workloads.CaptureIdent("base/"+bench, 0.02, 4, "")))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-savetrace wrote %d bytes that differ from the %d-byte baseline capture -trace-dir recorded", len(got), len(want))
	}

	m := regexp.MustCompile(`cycles:\s+(\d+) \(baseline (\d+)\)`).FindStringSubmatch(timing)
	if m == nil {
		t.Fatalf("no cycles line in -timing output:\n%s", timing)
	}
	for _, c := range []struct{ llc, cycles string }{{"split", m[1]}, {"baseline", m[2]}} {
		out, err := run("-replay", saved, "-llc", c.llc)
		if err != nil {
			t.Fatalf("-replay -llc %s: %v\n%s", c.llc, err, out)
		}
		if !regexp.MustCompile(`(?m)^cycles:\s+` + c.cycles + `$`).MatchString(out) {
			t.Errorf("-replay -llc %s: want %s cycles as -timing reported, got:\n%s", c.llc, c.cycles, out)
		}
	}

	if out, err := run("-replay", saved, "-cores", "8"); err == nil || !strings.Contains(out, "4 cores") || !strings.Contains(out, "-cores is 8") {
		t.Errorf("-replay of a 4-core capture with -cores 8: err %v, want a failure naming both counts:\n%s", err, out)
	}

	flipped := filepath.Join(dir, "flipped.dgt")
	got[len(got)/2] ^= 0x01
	if err := os.WriteFile(flipped, got, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := run("-replay", flipped); err == nil || !strings.Contains(out, "corrupt capture") {
		t.Errorf("-replay of a flipped file: err %v, want a corruption error:\n%s", err, out)
	}
}
