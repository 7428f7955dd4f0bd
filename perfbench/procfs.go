package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// userHZ is the kernel's USER_HZ, the unit of every tick count in /proc/stat
// and /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const userHZ = 100

// parseStealTicks reads the host-wide steal time from the aggregate "cpu"
// line of /proc/stat: the eighth value, in USER_HZ ticks summed over CPUs.
func parseStealTicks(stat []byte) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(stat))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, fmt.Errorf("/proc/stat: cpu line has %d fields, want at least 9", len(f))
		}
		return strconv.ParseUint(f[8], 10, 64)
	}
	return 0, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealSeconds is the host's cumulative steal time. Hosts without the field
// (no hypervisor accounting) read as an error, which callers report as 0.
func stealSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	t, err := parseStealTicks(b)
	return float64(t) / userHZ, err
}

// parseCPUTicks returns utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseCPUTicks(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/<pid>/stat: no command name")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/<pid>/stat: %d fields after the command name, want at least 13", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/<pid>/stat utime: %w", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/<pid>/stat stime: %w", err)
	}
	return u + s, nil
}

// procCPUSeconds is a live process's user+system CPU so far. Steal is not
// in it: the kernel charges a vCPU's stolen time to no task.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := parseCPUTicks(b)
	return float64(t) / userHZ, err
}

// parseHWMKiB returns VmHWM, the peak resident set, from /proc/<pid>/status.
func parseHWMKiB(status []byte) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("/proc/<pid>/status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("/proc/<pid>/status: no VmHWM line")
}

// procPeakRSSMB is a live process's peak resident set in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	k, err := parseHWMKiB(b)
	return float64(k) / 1024, err
}
