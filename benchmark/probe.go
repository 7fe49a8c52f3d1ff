package main

import (
	"math/bits"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark runs on is a few cores of a shared host, and its
// speed moves: the same training step has measured 330 ms, 400 ms and 480 ms
// in three half-hours of one afternoon, and ±20 % inside a run. A wall-clock
// reading is therefore as much a reading of the box as of the program, and
// two sets of runs an hour apart disagree by more than any bound the driver
// allows. The probe is the benchmark's own yardstick: a fixed piece of CPU
// work, none of it library code, timed in thin slices all through a run. The
// run's timing metrics are reported at the reference box's speed:
//
//	time on the reference box   = time measured × boxSpeed
//	rate on the reference box   = rate measured ÷ boxSpeed
//	boxSpeed                    = probeRefMs ÷ mean slice time of this run
//
// The library's time is almost all 256-bit modular multiplication, so the
// slice is a chain of 256-bit multiply-accumulates (math/bits, the
// instruction mix of internal/group's kernels). Over ten runs of train_cnn
// the run means of step time and slice time correlate 0.7–0.85, and dividing
// one by the other halves the quartile spread (19 % → 11 %, 10 % → 6 %); a
// memory-walking slice tracked the bursts inside a half-hour as well but not
// the shifts between half-hours, which are what sets of runs differ by.
//
// A slice is timed on the thread's CPU clock, not the wall clock: where
// several callers and a server share the two cores with the probe, the wall
// clock would also count the time the probe's thread waited for a core, and
// the yardstick would move with the load it is there to judge.

const (
	probeIters = 100_000 // multiplications per slice
	// probeRefMs is one slice on the reference box (README) in its most
	// common state, so that normalised readings stay in real units.
	probeRefMs = 3.0
	// probeShare is the part of a loop's elapsed time caller 0 spends in
	// slices.
	probeShare = 0.06
	// setupProbe is how long the box is probed after each set-up.
	setupProbe = 100 * time.Millisecond
)

var probeSink uint64

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeSlice runs one slice and returns the CPU time it took. The caller
// holds the goroutine on one thread.
func probeSlice() time.Duration {
	a := [4]uint64{0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89}
	b := a
	t := threadCPU()
	for n := 0; n < probeIters; n++ {
		var r [8]uint64
		for i := 0; i < 4; i++ {
			var carry uint64
			for j := 0; j < 4; j++ {
				hi, lo := bits.Mul64(a[i], b[j])
				var c1, c2 uint64
				lo, c1 = bits.Add64(lo, r[i+j], 0)
				lo, c2 = bits.Add64(lo, carry, 0)
				r[i+j] = lo
				carry = hi + c1 + c2
			}
			r[i+4] = carry
		}
		b = [4]uint64{r[4] ^ r[0], r[5] ^ r[1], r[6] ^ r[2], r[7] ^ r[3] | 1}
	}
	probeSink += b[0]
	return threadCPU() - t
}

// boxProbe accumulates the slices of one process.
type boxProbe struct {
	mu     sync.Mutex
	cpu    time.Duration
	slices int
}

// box is read during the measured loop, setupBox right after each set-up:
// the box's speed moves within seconds, and each reading is applied to what
// was timed next to it.
var box, setupBox boxProbe

// run takes slices for budget of wall-clock time, at least one, and returns
// the wall-clock time it took.
func (p *boxProbe) run(budget time.Duration) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	var cpu time.Duration
	n := 0
	for ok := true; ok; ok = time.Since(start) < budget {
		cpu += probeSlice()
		n++
	}
	p.mu.Lock()
	p.cpu += cpu
	p.slices += n
	p.mu.Unlock()
	return time.Since(start)
}

// speed is the box's speed over the slices taken so far, relative to the
// reference box: above 1 when this box is faster.
func (p *boxProbe) speed() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.slices == 0 {
		return 1
	}
	return probeRefMs / (float64(p.cpu.Nanoseconds()) / 1e6 / float64(p.slices))
}
