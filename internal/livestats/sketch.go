// Package livestats is the online observability layer of the monitor: a
// constant-memory streaming quantile sketch for per-segment latencies and a
// weakly-hard (m,k) SLO burn tracker, both cheap enough to feed from the
// monitor hot path on every resolved activation and safe to read
// concurrently from a /metrics or /health scrape.
//
// The offline evaluation keeps exact samples (internal/stats.Sample buffers
// everything and sorts); that is the right tool for the paper's Tukey
// boxplots and stays untouched. This package is the right tool for the
// multi-day wall-clock service: memory is bounded regardless of run length,
// sketches from independent shards or vehicles merge losslessly, and every
// estimate carries a documented error bound against the exact sample.
//
// Sketch buckets are kept in index order, so every live read — a /health
// or /metrics scrape taking the lock the monitor's resolution and drain
// hooks also take — is a single allocation-free walk with no sort. Merge
// folds whole buckets in ascending index order: one store insert per
// bucket, not per observation, and a deterministic Collapsed count.
package livestats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// DefaultAlpha is the default relative accuracy of a Sketch: estimates are
// within ±1% of the true order statistic (see Quantile for the exact bound).
const DefaultAlpha = 0.01

// defaultMaxBuckets bounds a store's bucket count; with α = 1% the buckets
// covering 1 ns … 1000 s number ~1400, so the bound only bites on
// pathological inputs (denormal floats), where the lowest buckets collapse.
const defaultMaxBuckets = 4096

// Sketch is a fixed-γ DDSketch-style streaming quantile sketch: values are
// counted in logarithmic buckets whose width is chosen so every value in a
// bucket is within relative accuracy α of the bucket's representative
// value. Memory is O(log(max/min)/α) regardless of how many values are
// observed, bounded further by a bucket cap with lowest-bucket collapsing.
//
// Buckets live in an index-sorted sparse store, as in DDSketch, so a
// quantile read is one in-order walk that allocates nothing, and observing
// into an existing bucket is a binary search and an increment.
//
// Two sketches with the same α merge losslessly: bucket counts add, so
// Merge(a, b) equals the sketch of the concatenated stream exactly (bucket
// assignment depends only on the value, never on arrival order) as long as
// neither side collapsed.
//
// A Sketch is not safe for concurrent use; the Set wrapper adds locking.
type Sketch struct {
	alpha    float64
	gamma    float64
	invLogG  float64 // 1 / ln(gamma)
	maxBkts  int
	pos, neg store  // neg indexes |v|
	zero     uint64 // exact zeros
	count    uint64
	sum      float64
	min, max float64 // exact extremes
	// collapsed counts values folded into a coarser lowest bucket once the
	// bucket cap was hit; low-quantile estimates then lose the α bound.
	collapsed uint64
	// invalid counts dropped NaN/±Inf observations (never valid latencies).
	invalid uint64
}

// NewSketch creates an empty sketch with relative accuracy alpha
// (0 < alpha < 1; 0 selects DefaultAlpha).
func NewSketch(alpha float64) *Sketch {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("livestats: sketch accuracy must be in (0,1), got %g", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		invLogG: 1 / math.Log(gamma),
		maxBkts: defaultMaxBuckets,
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Alpha returns the sketch's relative accuracy.
func (s *Sketch) Alpha() float64 { return s.alpha }

// index maps a positive magnitude to its bucket: bucket i covers
// (γ^(i-1), γ^i].
func (s *Sketch) index(v float64) int {
	return int(math.Ceil(math.Log(v) * s.invLogG))
}

// estimate is bucket i's representative value 2γ^i/(γ+1), within relative
// α of every value in the bucket.
func (s *Sketch) estimate(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Observe records one value. NaN and ±Inf are dropped (and counted in
// Invalid) — they are never valid latencies and would poison the buckets.
func (s *Sketch) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.invalid++
		return
	}
	switch {
	case v == 0:
		s.zero++
	case v > 0:
		s.add(&s.pos, s.index(v), 1)
	default:
		s.add(&s.neg, s.index(-v), 1)
	}
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// ObserveDuration records a duration in nanoseconds.
func (s *Sketch) ObserveDuration(d time.Duration) { s.Observe(float64(d)) }

// store is one sign's buckets: bucket indexes in ascending order with
// their counts in the parallel slice.
type store struct {
	keys   []int
	counts []uint64
}

// add adds n to bucket i, collapsing the two lowest buckets of the store
// when the cap is exceeded (low buckets hold the values that matter least
// for the high latency quantiles this sketch serves).
func (s *Sketch) add(st *store, i int, n uint64) {
	j, found := slices.BinarySearch(st.keys, i)
	if found {
		st.counts[j] += n
		return
	}
	st.keys = slices.Insert(st.keys, j, i)
	st.counts = slices.Insert(st.counts, j, n)
	if len(st.keys) <= s.maxBkts {
		return
	}
	s.collapsed += st.counts[0]
	st.counts[1] += st.counts[0]
	st.keys = slices.Delete(st.keys, 0, 1)
	st.counts = slices.Delete(st.counts, 0, 1)
}

// Count returns the number of observed (valid) values.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the sum of observed values.
func (s *Sketch) Sum() float64 { return s.sum }

// Invalid returns how many NaN/±Inf observations were dropped.
func (s *Sketch) Invalid() uint64 { return s.invalid }

// Collapsed returns how many observations were folded into a coarser
// bucket because the bucket cap was hit (0 in any realistic run).
func (s *Sketch) Collapsed() uint64 { return s.collapsed }

// Buckets returns the number of live buckets — the sketch's memory
// footprint in units of (index, count) pairs.
func (s *Sketch) Buckets() int {
	n := len(s.pos.keys) + len(s.neg.keys)
	if s.zero > 0 {
		n++
	}
	return n
}

// Min returns the exact smallest observation (NaN when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact largest observation (NaN when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.max
}

// Quantile returns an estimate of the q-th quantile (0 ≤ q ≤ 1).
//
// Error bound: let r = ⌈q·(n−1)⌉ (the 0-indexed target rank) and x_r the
// exact r-th order statistic of the observed values. The returned value v̂
// satisfies |v̂ − x_r| ≤ α·|x_r|, i.e. it is within relative accuracy α of
// the exact order statistic at the rank a non-interpolating quantile would
// pick. Against internal/stats.Sample's type-7 interpolated quantile the
// bound becomes: (1−α)·x_⌊q(n−1)⌋ ≤ v̂ ≤ (1+α)·x_⌈q(n−1)⌉ for non-negative
// data, since the interpolated value sits between the two bracketing order
// statistics. The bound does not hold below the collapse point after a
// bucket-cap collapse (Collapsed > 0).
//
// Estimates are clamped to the exact [Min, Max], so Quantile(0) and
// Quantile(1) are exact. An empty sketch returns NaN.
func (s *Sketch) Quantile(q float64) float64 {
	v, ok := s.QuantileOK(q)
	if !ok {
		return math.NaN()
	}
	return v
}

// QuantileOK is Quantile with an explicit emptiness signal: ok is false —
// and the value 0, never a garbage bucket bound — when no valid value was
// observed. Consumers that turn quantiles into budgets (the live solver
// frontend) must use this form so unobserved segments are skipped instead
// of solved on zeros.
func (s *Sketch) QuantileOK(q float64) (float64, bool) {
	if s.count == 0 {
		return 0, false
	}
	if q <= 0 {
		return s.min, true
	}
	if q >= 1 {
		return s.max, true
	}
	rank := q * float64(s.count-1)

	v := s.locate(rank)
	// Clamp to the exact extremes: bucket representatives can stick out of
	// the observed range by up to α.
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v, true
}

// locate walks the buckets in ascending value order — negatives by
// descending magnitude, the zero bucket, positives by ascending magnitude —
// and returns the representative of the bucket holding the target rank.
func (s *Sketch) locate(rank float64) float64 {
	cum := uint64(0)
	for j := len(s.neg.keys) - 1; j >= 0; j-- {
		cum += s.neg.counts[j]
		if float64(cum) > rank {
			return -s.estimate(s.neg.keys[j])
		}
	}
	cum += s.zero
	if s.zero > 0 && float64(cum) > rank {
		return 0
	}
	for j, i := range s.pos.keys {
		cum += s.pos.counts[j]
		if float64(cum) > rank {
			return s.estimate(i)
		}
	}
	return s.max
}

// Merge folds other into s. Both sketches must share the same accuracy α
// (bucket layouts are incompatible otherwise); Merge panics on a mismatch
// since that is always a wiring bug. The merged sketch is identical to the
// sketch of the concatenated streams as long as neither input collapsed.
//
// Whole buckets are folded in ascending index order, one store insert per
// bucket rather than per observation. Under the bucket cap the resulting
// layout does not depend on the fold order, but Collapsed does (mass that
// already collapsed can collapse again); the fixed order makes it
// deterministic.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.count == 0 && other.invalid == 0 {
		return
	}
	if other.alpha != s.alpha {
		panic(fmt.Sprintf("livestats: merging sketches with α=%g and α=%g", s.alpha, other.alpha))
	}
	for j, i := range other.pos.keys {
		s.add(&s.pos, i, other.pos.counts[j])
	}
	for j, i := range other.neg.keys {
		s.add(&s.neg, i, other.neg.counts[j])
	}
	s.zero += other.zero
	s.count += other.count
	s.sum += other.sum
	s.invalid += other.invalid
	s.collapsed += other.collapsed
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Reset empties the sketch, keeping its configuration.
func (s *Sketch) Reset() {
	s.pos.keys, s.pos.counts = s.pos.keys[:0], s.pos.counts[:0]
	s.neg.keys, s.neg.counts = s.neg.keys[:0], s.neg.counts[:0]
	s.zero, s.count, s.collapsed, s.invalid = 0, 0, 0, 0
	s.sum = 0
	s.min, s.max = math.Inf(1), math.Inf(-1)
}
