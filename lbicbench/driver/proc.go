package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one finished child process.
type child struct {
	wall   time.Duration
	cpu    time.Duration // user and system
	sys    time.Duration // system alone
	maxRSS float64       // MiB, from the child's own rusage
	code   int
	stdout []byte
	stderr []byte
}

// runChild runs a program to completion and collects its rusage. The child
// is killed if the driver dies first.
func runChild(path string, args []string, extraEnv ...string) (child, error) {
	cmd := exec.Command(path, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(start), stdout: out.Bytes(), stderr: errb.Bytes()}
	if cmd.ProcessState == nil {
		return c, fmt.Errorf("running %s: %w", path, err)
	}
	c.code = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.sys = time.Duration(ru.Stime.Nano())
		c.cpu = time.Duration(ru.Utime.Nano()) + c.sys
		c.maxRSS = float64(ru.Maxrss) / 1024
	}
	return c, nil
}

// procCPU returns a live process's user+system and system CPU time from
// /proc.
func procCPU(pid int) (cpu, sys time.Duration, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks of 1/100 s.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	const tick = 10 * time.Millisecond
	return time.Duration(ut+st) * tick, time.Duration(st) * tick, nil
}

// procHWM returns a live process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// gcLine matches one GODEBUG=gctrace=1 line of the Go runtime:
//
//	gc 7 @0.21s 4%: 0.02+1.1+0.01 ms clock, 0.05+0.3/0.9/0.1+0.03 ms cpu, 4->5->2 MB, 5 MB goal, ...
var gcLine = regexp.MustCompile(`gc \d+ @[0-9.]+s \d+%: \S+ ms clock, (\S+) ms cpu, (\d+)->(\d+)->(\d+) MB`)

// gcCycle is one collection: its CPU time and the heap sizes it reports.
type gcCycle struct {
	cpu                  time.Duration
	start, end, liveHeap float64 // MB
}

func parseGCTrace(text []byte) []gcCycle {
	var out []gcCycle
	for _, m := range gcLine.FindAllSubmatch(text, -1) {
		var c gcCycle
		for _, f := range strings.FieldsFunc(string(m[1]), func(r rune) bool { return r == '+' || r == '/' }) {
			v, _ := strconv.ParseFloat(f, 64)
			c.cpu += time.Duration(v * float64(time.Millisecond))
		}
		c.start, _ = strconv.ParseFloat(string(m[2]), 64)
		c.end, _ = strconv.ParseFloat(string(m[3]), 64)
		c.liveHeap, _ = strconv.ParseFloat(string(m[4]), 64)
		out = append(out, c)
	}
	return out
}

// gcTotals sums the collections in cycles[from:]: their CPU time, and the
// bytes allocated since the collection before from (heap at each cycle's
// end minus the live heap the previous cycle left), in MB.
func gcTotals(cycles []gcCycle, from int) (cpu time.Duration, allocMB float64) {
	prevLive := 0.0
	if from > 0 && from <= len(cycles) {
		prevLive = cycles[from-1].liveHeap
	}
	for _, c := range cycles[min(from, len(cycles)):] {
		cpu += c.cpu
		allocMB += c.end - prevLive
		prevLive = c.liveHeap
	}
	return cpu, allocMB
}
