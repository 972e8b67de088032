package main

import (
	"sort"
	"time"
)

// The benchmark runs on shared machines whose speed drifts by tens of
// percent within minutes. CPU-bound end-to-end metrics are therefore
// normalized by a machine-speed index: a fixed reference kernel, owned by
// the benchmark and untouched by any program change, is timed between the
// measured repetitions, and a rate is scaled by
// (reference pass time / refNominal) — it reads as if measured on a machine
// whose reference pass takes refNominal. The raw values go to stderr.

// refNominal is the reference pass time the normalized metrics are scaled
// to (about the pass time on a 2-vCPU 2.1 GHz Xeon guest).
const refNominal = 3700 * time.Microsecond

// refLen is the reference's slice length: 256 KiB of ints, an L2-sized
// working set.
const refLen = 1 << 15

// speed is a run's machine-speed index. Its reference is allocation-free:
// refill a preallocated slice from a fixed linear congruential sequence and
// sort it — branchy, cache-resident work whose timing tracked the
// simulator's best among the kernels tried on a shared 2-vCPU guest.
type speed struct {
	buf    []int
	sink   int
	passes []float64 // seconds
}

func newSpeed() *speed { return &speed{buf: make([]int, refLen)} }

// pass runs the reference once and returns its duration.
func (s *speed) pass() time.Duration {
	t0 := time.Now()
	x := 1
	for i := range s.buf {
		x = x*1103515245 + 12345
		s.buf[i] = x & 0xffffff
	}
	sort.Ints(s.buf)
	s.sink += s.buf[refLen/2]
	return time.Since(t0)
}

// sample times five reference passes and returns how much slower than
// nominal the machine ran during them: their median over refNominal. A
// rate measured next to the sample is normalized by multiplying it with the
// factor, a duration by dividing it.
func (s *speed) sample() float64 {
	var ds []float64
	for i := 0; i < 5; i++ {
		ds = append(ds, s.pass().Seconds())
	}
	s.passes = append(s.passes, ds...)
	return median(ds) / refNominal.Seconds()
}

// passMS is the median reference pass of the run, in ms.
func (s *speed) passMS() float64 { return median(s.passes) * 1e3 }
