package main

import (
	"bytes"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCrashRecoveryByteIdentical is the crash-consistency check for the
// persistent trace store: a recording run is SIGKILLed at randomized points
// — no cleanup, no signal handler, the hardest possible stop — and the next
// run over the same directory must still finish and print tables
// byte-identical to a run that never touched a trace directory. The
// startup scrub sweeps whatever the kill left behind (an orphaned temp, a
// half-populated directory); the atomic-write protocol guarantees no
// visible capture is ever torn.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs simulations")
	}
	if runtime.GOOS == "windows" {
		t.Skip("relies on SIGKILL delivery")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	traceDir := filepath.Join(dir, "traces")
	args := func(extra ...string) []string {
		a := []string{"-scale", "0.05", "-only", "kmeans", "-workers", "2", "-quiet"}
		a = append(a, extra...)
		return append(a, "table2")
	}

	// Reference: no trace directory in the loop.
	want, err := exec.Command(bin, args()...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Kill recording runs at random points; some die before recording
	// anything, some mid-write, some after finishing (the kill misses).
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		cmd := exec.Command(bin, args("-trace-dir", traceDir)...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		delay := time.Duration(rng.Intn(1500)) * time.Millisecond
		time.Sleep(delay)
		cmd.Process.Kill()
		cmd.Wait()
		t.Logf("kill %d after %v", i, delay)
	}

	// Recovery: the scrub runs at startup (default -trace-verify=open), the
	// sweep replays what survived and re-records what didn't, and the tables
	// must not differ by a byte.
	got, err := exec.Command(bin, args("-trace-dir", traceDir)...).Output()
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovery output diverged:\n--- clean ---\n%s\n--- recovered ---\n%s", want, got)
	}
	ents, err := os.ReadDir(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("orphan temp survived recovery: %s", e.Name())
		}
	}
	// And a warm replay over the recovered directory still matches.
	warm, err := exec.Command(bin, args("-trace-dir", traceDir)...).Output()
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if !bytes.Equal(warm, want) {
		t.Fatalf("warm replay diverged after recovery:\n--- clean ---\n%s\n--- warm ---\n%s", want, warm)
	}
}
