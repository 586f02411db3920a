package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var clockBase = time.Now()

// nowNS is the harness clock: monotonic nanoseconds since process start.
func nowNS() int64 { return int64(time.Since(clockBase)) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrFrac is the interquartile range as a share of the median.
func iqrFrac(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// passClock turns a monotone count of closed TCP stream directions into
// pass completion stamps: pass k of a phase is complete when the count has
// grown by k × perPass since the phase began.
type passClock struct {
	perPass uint64
	base    uint64  // count when the phase began
	done    uint64  // passes complete so far
	stamps  []int64 // stamps[0] is the phase start; stamps[k] ends pass k
}

func newPassClock(perPass, base uint64, start int64, capacity int) *passClock {
	c := &passClock{perPass: perPass, base: base, stamps: make([]int64, 1, capacity+1)}
	c.stamps[0] = start
	return c
}

// target is the count at which the next pass completes.
func (c *passClock) target() uint64 { return c.base + (c.done+1)*c.perPass }

// observe records a stamp for every pass the count has newly completed.
func (c *passClock) observe(count uint64, now int64) {
	for count >= c.target() {
		c.done++
		c.stamps = append(c.stamps, now)
	}
}

// rates returns the per-pass completed-frame rate in frames per second.
func (c *passClock) rates(framesPerPass int) []float64 {
	out := make([]float64, 0, len(c.stamps))
	for k := 1; k < len(c.stamps); k++ {
		if dt := c.stamps[k] - c.stamps[k-1]; dt > 0 {
			out = append(out, float64(framesPerPass)/(float64(dt)/1e9))
		}
	}
	return out
}

// sleepNS blocks the calling thread in nanosleep(2). time.Sleep wakes up to
// a millisecond late when every P is idle (the runtime then waits in the
// network poller, whose timeout has millisecond granularity), which would
// put the generator's own lateness into every paced-phase latency. A signal
// (the runtime preempts with them) can end the sleep early, so callers loop.
func sleepNS(d int64) {
	ts := syscall.NsecToTimespec(d)
	_ = syscall.Nanosleep(&ts, nil)
}

// cpuNS is the process CPU time consumed so far (user + system).
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB reads the process resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// The calibration kernel walks a single-cycle permutation of 2^23 words
// (32 MiB: eight times a core's L2, so every step is a dependent load the
// shared last-level cache or DRAM answers). calibNext[i] is the linear
// congruential successor of i, which visits every index before repeating
// (Hull–Dobell: odd increment, multiplier ≡ 1 mod 4) in an order no
// prefetcher follows.
const calibWords = 1 << 23

var (
	calibNext []uint32
	calibPos  uint32
)

// calibrate times the reference kernel and returns ns per dependent load:
// the median of five bursts of 2^17 loads, i.e. the memory latency this
// host offers over the ~0.1 s the call takes. That latency is what moves on
// a shared host — neighbours fill the last-level cache and the memory
// channels — and the pipeline, which misses the cache several times per
// frame, moves with it, while an arithmetic kernel reads the same to within
// a few per cent throughout. See hostFactor.
func calibrate() float64 {
	const steps = 1 << 17
	if calibNext == nil {
		calibNext = make([]uint32, calibWords)
		for i := range calibNext {
			calibNext[i] = (uint32(i)*0x9e3779b1 + 0x7f4a7c15) & (calibWords - 1)
		}
	}
	var bursts [5]float64
	p := calibPos
	for b := range bursts {
		t0 := nowNS()
		for j := 0; j < steps; j++ {
			p = calibNext[p]
		}
		bursts[b] = float64(nowNS()-t0) / steps
	}
	calibPos = p
	return median(bursts[:])
}

// Host normalisation. On the shared hosts this benchmark runs on, the same
// code reads 30 % slower for minutes at a time while neighbours load the
// memory system; the calibration kernel reads slower with it. Wall-clock
// and CPU-time metrics are therefore reported as they would read on a host
// whose calibration is nominalCalibNS: a time is divided, a rate multiplied,
// by (calibration ÷ nominal)^hostExponent, the calibration being the mean
// of the readings taken through the phase the metric comes from. The
// exponent is the share of a frame's time that scales with memory latency,
// fitted once over the four workloads and the four metrics together (see
// README.md); the raw readings are printed beside the normalised ones.
const (
	nominalCalibNS = 100
	hostExponent   = 0.8
)

// hostFactor is how many times slower than the nominal host this one runs
// the pipeline, given the calibration readings of a phase.
func hostFactor(calib []float64) float64 {
	return math.Pow(mean(calib)/nominalCalibNS, hostExponent)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
