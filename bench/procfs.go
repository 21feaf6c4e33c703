package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of the CPU times in /proc/<pid>/stat. Linux has
// reported USER_HZ = 100 to user space on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTimes is the box's CPU time since boot, in clock ticks: the sum over
// all states, and the part the hypervisor gave to someone else.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var t cpuTimes
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShareSince is the share of the box's CPU time since an earlier
// reading that was stolen: the noise nobody here controls.
func stealShareSince(t0 cpuTimes) float64 {
	t1 := readCPUTimes()
	if t1.total <= t0.total {
		return 0
	}
	return (t1.steal - t0.steal) / (t1.total - t0.total)
}

// processCPU returns the user plus system CPU time a process has used.
func processCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; the numbered
	// fields resume after the last ')'. utime and stime are fields 14, 15.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unreadable CPU times", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the high-water mark of a process's resident set.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// selfCPU returns the user plus system CPU time of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
