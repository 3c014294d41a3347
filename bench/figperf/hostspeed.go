package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host time on a shared machine is not a property of the program alone.
// On a shared 2-vCPU Xeon host, the same simulator run on the same seed
// took anywhere from 45 to 100 ms, in stretches of seconds to minutes, as
// neighbours competed for the physical cores and caches; the median of a
// 25-s run moved by up to a third between runs. A median cannot remove a
// slowdown that lasts a whole run. So every timed interval is bracketed by
// two samples of a fixed calibration kernel and scaled by how fast the
// kernel ran (bench/README.md has the spreads this leaves).
//
// Neither the intervals nor the kernel count steal time, the time the
// hypervisor gives a vCPU to another guest. It comes in slices of
// milliseconds, which slow a long interval in proportion but stretch a
// 3-ms kernel sample several-fold or not at all.
//
// The kernel lives in the benchmark, so no change to the simulator moves
// it. It is a set-associative LRU tag array probed with pseudo-random
// block addresses: branchy, dependent lookups in a 1 MB table, the shape
// of the simulator's own cache and tag-store lookups, whose speed on a
// contended host moves with the simulator's. Kernels that only chased
// pointers, only hashed, or used tables of 4 MB or more tracked it worse.
const (
	calSets, calWays = 1 << 13, 16 // a 1 MB table of uint64 tags
	calLookups       = 120_000     // about 3.5 ms per sample at the reference speed
	// refLookupsPerSec is the reference speed host times are scaled to:
	// roughly the kernel's uncontended speed on that host, so scaled times
	// there read close to uncontended wall time.
	refLookupsPerSec = 34e6
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which the
// syscall package lacks. Unlike getrusage, which sees a running thread's
// time only up to the last scheduler tick, this clock is exact.
const clockThreadCPUTime = 3

// threadCPU returns the calling thread's CPU time, which does not count
// steal time: for a thread that never waits, wall time less steal. The
// clock exists on every Linux kernel, so the call does not fail. The
// caller must be locked to its thread for two readings to be comparable.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

var wallOrigin = time.Now()

// wallLessSteal returns wall time less the vCPUs' mean steal time, for
// intervals that keep several goroutines busy, which no one thread's
// clock covers. /proc/stat counts steal in hundredths of a second; where
// it cannot be read, steal counts as zero.
func wallLessSteal() time.Duration {
	steal := time.Duration(0)
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(data), "\n")
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			if n, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				steal = time.Duration(n) * 10 * time.Millisecond
			}
		}
	}
	return time.Since(wallOrigin) - steal/time.Duration(runtime.NumCPU())
}

// clockFor returns the clock an interval that keeps threads goroutines
// busy is timed on.
func clockFor(threads int) func() time.Duration {
	if threads <= 1 {
		return threadCPU
	}
	return wallLessSteal
}

// calKernel is one copy of the kernel's state.
type calKernel struct {
	tags []uint64
	x    uint64
	hits int
}

// lookups probes the table n times, moving each hit to the front of its
// set and inserting each miss there.
func (k *calKernel) lookups(n int) {
	x, hits := k.x, 0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		block := x % (1 << 26) >> 6
		set := k.tags[int(block)%calSets*calWays:][:calWays]
		j := 0
		for j < calWays-1 && set[j] != block {
			j++
		}
		if set[j] == block {
			hits++
		}
		copy(set[1:j+1], set[:j])
		set[0] = block
	}
	k.x, k.hits = x, k.hits+hits
}

// speed runs the kernel once on the calling goroutine, which must be
// locked to its thread, and returns its speed relative to the reference:
// 1 at the reference speed, 0.5 on a host half as fast.
func (k *calKernel) speed() float64 {
	start := threadCPU()
	k.lookups(calLookups)
	return calLookups / (threadCPU() - start).Seconds() / refLookupsPerSec
}

// calibrator samples the host's speed with as many kernels, run at the
// same time, as the timed interval keeps goroutines busy: a phase on two
// threads is slowed by contention on either core, and on this kind of
// host two busy threads slow each other far more than one.
type calibrator struct {
	kernels []*calKernel
}

// newCalibrator makes kernels for intervals of up to threads goroutines.
func newCalibrator(threads int) *calibrator {
	c := &calibrator{}
	for i := 0; i < max(threads, 1); i++ {
		k := &calKernel{tags: make([]uint64, calSets*calWays), x: 88172645463325252 + uint64(i)}
		k.lookups(calLookups) // fault the table in and fill it before the first sample
		c.kernels = append(c.kernels, k)
	}
	return c
}

// speed runs threads kernels at once and returns their mean speed
// relative to the reference. A single kernel runs on the calling
// goroutine, which is locked to its thread and likely on the core the
// interval just ran on.
func (c *calibrator) speed(threads int) float64 {
	if threads <= 1 {
		return c.kernels[0].speed()
	}
	speeds := make([]float64, threads)
	var wg sync.WaitGroup
	for i, k := range c.kernels[:threads] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			speeds[i] = k.speed()
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, s := range speeds {
		sum += s
	}
	return sum / float64(len(speeds))
}
