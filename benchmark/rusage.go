package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Process accounting read from the kernel, so the cost metrics include what
// wall-clock hides: spinning, polling, and the worker processes of the cluster
// workload, which are children of this process and alive during the run.

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, fixed at
// 100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// liveChildren lists the PIDs whose parent is this process.
func liveChildren() []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	self := os.Getpid()
	var kids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if f := statFields(pid); f != nil && f[1] == strconv.Itoa(self) && f[0] != "Z" {
			kids = append(kids, pid)
		}
	}
	return kids
}

// statFields returns the fields of /proc/<pid>/stat after the command name
// (which may itself contain spaces): [0]=state, [1]=ppid, [11]=utime,
// [12]=stime.
func statFields(pid int) []string {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil
	}
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return nil
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return nil
	}
	return f
}

// cpuSeconds is user+system CPU consumed so far by this process, by the
// children it has reaped, and by the children still running. childOnly is the
// children's part.
func cpuSeconds() (total, childOnly float64) {
	var self, kids syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil {
		return 0, 0
	}
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids); err != nil {
		return 0, 0
	}
	childOnly = tvSeconds(kids.Utime) + tvSeconds(kids.Stime)
	for _, pid := range liveChildren() {
		if f := statFields(pid); f != nil {
			ut, _ := strconv.ParseInt(f[11], 10, 64)
			st, _ := strconv.ParseInt(f[12], 10, 64)
			childOnly += float64(ut+st) * clockTick.Seconds()
		}
	}
	return tvSeconds(self.Utime) + tvSeconds(self.Stime) + childOnly, childOnly
}

// vmHWM reads a process's peak resident set ("VmHWM", kB) in MB.
func vmHWM(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// peakRSSMB is this process's peak resident set plus that of every child still
// running. Call it before tearing the system under test down.
func peakRSSMB() float64 {
	mb := vmHWM(os.Getpid())
	for _, pid := range liveChildren() {
		mb += vmHWM(pid)
	}
	return mb
}

// leaks waits briefly for worker processes to be reaped and the given
// run-directory paths to disappear after a teardown, and describes whatever
// remains.
func leaks(paths []string) []string {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var left []string
		for _, pid := range liveChildren() {
			left = append(left, fmt.Sprintf("child process %d", pid))
		}
		for _, p := range paths {
			if _, err := os.Lstat(p); err == nil {
				left = append(left, "path "+p)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(20 * time.Millisecond)
	}
}
