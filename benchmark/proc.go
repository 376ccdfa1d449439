//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// cpuSeconds returns the user+system CPU time a process — all its
// threads — has consumed so far, from the kernel's per-process CPU-time
// clock at nanosecond resolution: the harness itself for pid 0, else a
// child (the clock id encodes the pid, as clock_getcpuclockid(3) does).
func cpuSeconds(pid int) (float64, error) {
	clock := uintptr(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		clock = uintptr(^pid<<3 | 2)
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(cpu clock of pid %d): %w", pid, errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// statusMB reads one kB-valued field of /proc/<pid>/status (VmHWM, the
// peak resident set, or VmRSS, the current one) in MB; pid 0 is the
// harness itself.
func statusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %s: %w", path, field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, field)
}
