package main

import (
	"os"
	"testing"
)

func TestParseStealTicks(t *testing.T) {
	stat := []byte("cpu  135731 0 10231 465781 2702 0 1184 20599 0 0\ncpu0 68090 0 5643 231518 1694 0 608 11156 0 0\n")
	got, err := parseStealTicks(stat)
	if err != nil || got != 20599 {
		t.Fatalf("parseStealTicks = %d, %v; want 20599", got, err)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8 9\n", "cpu  1 2 3\n", "cpu  1 2 3 4 5 6 7 x 9\n"} {
		if _, err := parseStealTicks([]byte(bad)); err == nil {
			t.Errorf("parseStealTicks(%q) succeeded", bad)
		}
	}
}

func TestParseCPUTicks(t *testing.T) {
	// A command name with spaces and a parenthesis must not shift fields.
	stat := []byte("4242 (odd) name) S 1 4242 4242 0 -1 4194560 2150 0 0 0 1234 56 0 0 20 0 9 0 5000 100000 500\n")
	got, err := parseCPUTicks(stat)
	if err != nil || got != 1290 {
		t.Fatalf("parseCPUTicks = %d, %v; want 1234+56", got, err)
	}
	for _, bad := range []string{"4242 sweepd S 1", "4242 (sweepd) S 1 2 3"} {
		if _, err := parseCPUTicks([]byte(bad)); err == nil {
			t.Errorf("parseCPUTicks(%q) succeeded", bad)
		}
	}
}

func TestParseHWMKiB(t *testing.T) {
	status := []byte("Name:\tsweepd\nVmPeak:\t 2000000 kB\nVmHWM:\t  626112 kB\nVmRSS:\t  500000 kB\n")
	got, err := parseHWMKiB(status)
	if err != nil || got != 626112 {
		t.Fatalf("parseHWMKiB = %d, %v; want 626112", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t 12 MB\n"} {
		if _, err := parseHWMKiB([]byte(bad)); err == nil {
			t.Errorf("parseHWMKiB(%q) succeeded", bad)
		}
	}
}

// TestProcSelf reads this test process's own entries, so the parsers are
// checked against the running kernel's formats too.
func TestProcSelf(t *testing.T) {
	if _, err := stealSeconds(); err != nil {
		t.Errorf("stealSeconds: %v", err)
	}
	if _, err := procCPUSeconds(os.Getpid()); err != nil {
		t.Errorf("procCPUSeconds: %v", err)
	}
	if mb, err := procPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("procPeakRSSMB = %v, %v", mb, err)
	}
}
