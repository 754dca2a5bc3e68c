package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the linearly interpolated q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of the positive entries of xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// clock reads the process's CPU time, summed over its threads
// (CLOCK_PROCESS_CPUTIME_ID, Linux). Every time the benchmark reports is
// measured on it; only the run's length is wall time. On a host shared
// with other tenants the hypervisor takes the cores away for stretches
// (the steal column of /proc/stat), and other tenants' threads queue with
// ours: both stretch wall time by up to 1.7x for minutes, and neither is
// counted here, since the kernel accounts steal apart from task time.
func clock() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// since is the clock time since t, in ms.
func since(t time.Duration) float64 { return ms(clock() - t) }
