package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds is the CPU time, user plus system, this process and the
// children it has waited for have used.
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		}
	}
	return total
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB is the process's peak resident set (VmHWM); with children it
// adds the largest peak among the worker processes it has waited for.
func peakRSSMB(children bool) float64 {
	kb := vmHWMKB()
	var ru syscall.Rusage
	if kb == 0 && syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		kb = float64(ru.Maxrss) // no /proc: the kernel's own high-water mark
	}
	if children && syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		kb += float64(ru.Maxrss)
	}
	return kb / 1e3
}

// vmHWMKB reads VmHWM from /proc/self/status, or 0 where there is none.
func vmHWMKB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb
			}
		}
	}
	return 0
}
