package main

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared virtual machines whose speed drifts by
// a quarter or more over minutes, as neighbours load the host. Two
// things move: the speed of a vCPU while it runs (frequency, and
// contention for its core and caches), which cadd's CPU time per push
// follows, and the share of wall time the hypervisor takes the vCPU
// away (steal, 0–20% of a run), which only wall-clock times follow.
// Either moves the run-to-run spread of raw push times past any useful
// regression bound. Each run therefore also times a fixed calibration
// kernel, one slice after every push it acks in the window (cadd is
// idle then), by the wall clock and by its thread's CPU clock, and
// reports its times scaled towards a reference host by the kernel's
// slowdown s = (mean slice time) ÷ calibRefMs, raised to
// calibExponent:
//
//   - each push latency ÷ s^calibExponent, with s from the wall times
//     of the slices within calibHalfWindow of it. A mean, because steal
//     comes in bursts that hit a few slices hard, in proportion to the
//     wall time they take from the pushes; local, so a burst is scaled
//     where it happened.
//   - the push rate × s^calibExponent, s from the run's slice wall
//     times.
//   - cadd's CPU time per push ÷ s^calibExponent, s from the slices'
//     thread CPU times, which leave steal out, as CPU time does.
//   - the set-up time (the boots run in the seconds before the window)
//     ÷ s^calibExponent, s from the run's slice wall times.
//
// The exponent is below 1 because no kernel tried tracks cadd in every
// host state: across the states met while building the benchmark the
// kernel's slowdown was between about one and two times cadd's (two
// when the host's memory was contended). Full scaling then left run-to-
// run spreads (interquartile range ÷ median over ten seeds) of up to
// 0.36 in the contended state, no scaling up to 0.28 on churn, and the
// square root at most 0.19.
//
// Slices always run right after a push, so they meet the caches in the
// same state every time: back to back they run twice as fast, which is
// why the boots are not calibrated by slices of their own.
//
// The kernel is what cadd's pushes spend their time on, in small: a
// chain of dependent loads through a cache-sized array (a sparse solve
// waits on loads much like this) and parsing and formatting decimal
// weights (the JSON wire path). It was chosen over dense mat-vec and
// JSON-decode kernels by how well scaling by it steadied all three
// workloads across host states; a mat-vec alone speeds up and slows
// down with the host about twice as much as cadd does. The kernel is
// stdlib-only code of this file with inputs fixed here, so no change
// to the program under test can move it; a program change moves the
// scaled metrics exactly as it moves the raw ones, which the
// end-to-end run prints to stderr beside them.

// calibRefMs is the kernel's mean time on the reference host (2 vCPUs
// of an Intel Xeon at 2.0 GHz, Go 1.24, little steal), so scaled
// figures read roughly as milliseconds on that host.
const calibRefMs = 4.2

// calibExponent is the power of the kernel's slowdown the times are
// scaled by (see above).
const calibExponent = 0.5

// hostScale is the factor a time measured while the kernel's slices
// took sliceMs on average is divided by.
func hostScale(sliceMs float64) float64 { return math.Pow(sliceMs/calibRefMs, calibExponent) }

const (
	// calibChain int32 entries (1 MiB) hold one random cycle, followed
	// for calibHops dependent loads per slice.
	calibChain = 1 << 18
	calibHops  = 60000
	// calibNums decimal weights are parsed and formatted calibRounds
	// times per slice.
	calibNums   = 1500
	calibRounds = 2
	// calibHalfWindow slices on either side of a push, and the one
	// right after it, give the host speed the push is scaled by.
	calibHalfWindow = 20
	// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
	clockThreadCPUTime = 3
)

// calibrator holds the kernel's fixed inputs and the times of the
// slices it has run.
type calibrator struct {
	next []int32
	at   int32
	nums []string
	buf  []byte
	sink int
	// wallMs and cpuMs hold every slice's wall and thread CPU time.
	wallMs, cpuMs []float64
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{next: make([]int32, calibChain), buf: make([]byte, 0, 64)}
	perm := rng.Perm(calibChain)
	for i, v := range perm {
		c.next[v] = int32(perm[(i+1)%calibChain])
	}
	for i := 0; i < calibNums; i++ {
		c.nums = append(c.nums, strconv.FormatFloat(rng.ExpFloat64()*10, 'g', -1, 64))
	}
	return c
}

// reset forgets the slices run so far.
func (c *calibrator) reset() { c.wallMs, c.cpuMs = nil, nil }

// slice runs the kernel once, records its times and returns its wall
// time.
func (c *calibrator) slice() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	start := time.Now()
	at := c.at
	for i := 0; i < calibHops; i++ {
		at = c.next[at]
	}
	c.at = at
	for r := 0; r < calibRounds; r++ {
		for _, s := range c.nums {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				panic(err)
			}
			c.buf = strconv.AppendFloat(c.buf[:0], v*1.0001, 'g', -1, 64)
			c.sink += len(c.buf)
		}
	}
	d := time.Since(start)
	c.cpuMs = append(c.cpuMs, ms(threadCPU()-cpu0))
	c.wallMs = append(c.wallMs, ms(d))
	return d
}

// threadCPU returns the calling thread's CPU time. It reads the
// thread CPU clock, which is exact; getrusage and /proc lag by up to a
// scheduler tick, longer than a slice.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// localScaled returns the push latencies lat scaled towards the
// reference host: push j by the mean of slices j-calibHalfWindow ..
// j+calibHalfWindow of wall, where slice j ran right after push j. A
// push acked after the window (which has no slice) uses the last
// slices.
func localScaled(lat, wall []float64) []float64 {
	out := make([]float64, len(lat))
	for j, v := range lat {
		k := min(j, len(wall)-1)
		lo, hi := max(k-calibHalfWindow, 0), min(k+calibHalfWindow+1, len(wall))
		out[j] = v / hostScale(mean(wall[lo:hi]))
	}
	return out
}
