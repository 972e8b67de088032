package livestats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"chainmon/internal/stats"
)

var testQuantiles = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// checkAgainstExact asserts the documented bound for every test quantile:
// for non-negative data the sketch estimate must fall inside
// [(1−α)·x_⌊q(n−1)⌋, (1+α)·x_⌈q(n−1)⌉] where x_i are the exact order
// statistics — the bracket that also contains stats.Sample's type-7
// interpolated quantile.
func checkAgainstExact(t *testing.T, sk *Sketch, values []float64, label string) {
	t.Helper()
	if len(values) == 0 {
		return
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	alpha := sk.Alpha()
	for _, q := range testQuantiles {
		got := sk.Quantile(q)
		pos := q * float64(len(sorted)-1)
		lo := sorted[int(math.Floor(pos))]
		hi := sorted[int(math.Ceil(pos))]
		lob := (1 - alpha) * lo
		hib := (1 + alpha) * hi
		if got < lob || got > hib {
			t.Errorf("%s: q=%g estimate %g outside bound [%g, %g] (exact order stats %g..%g)",
				label, q, got, lob, hib, lo, hi)
		}
	}
}

// The acceptance-criteria property: on random and adversarial streams the
// sketch quantiles stay within the advertised rank-error bound of the exact
// stats.Sample order statistics.
func TestSketchQuantileBoundRandomStreams(t *testing.T) {
	streams := map[string]func(r *rand.Rand, n int) []float64{
		"uniform": func(r *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = r.Float64() * 1e9
			}
			return out
		},
		"lognormal-latency": func(r *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = math.Exp(r.NormFloat64()*2 + 15) // ~µs..s in ns
			}
			return out
		},
		"heavy-tail": func(r *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = 1e6 / math.Pow(r.Float64()+1e-9, 1.5)
			}
			return out
		},
		"bimodal": func(r *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				if r.Intn(2) == 0 {
					out[i] = 1e6 + r.Float64()*1e4
				} else {
					out[i] = 5e7 + r.Float64()*1e6
				}
			}
			return out
		},
	}
	for name, gen := range streams {
		for _, n := range []int{1, 2, 3, 10, 100, 5000} {
			r := rand.New(rand.NewSource(int64(n) * 7919))
			values := gen(r, n)
			sk := NewSketch(0)
			for _, v := range values {
				sk.Observe(v)
			}
			checkAgainstExact(t, sk, values, name)
		}
	}
}

func TestSketchQuantileBoundAdversarialStreams(t *testing.T) {
	streams := map[string][]float64{
		"constant":         repeat(42e6, 1000),
		"two-values":       append(repeat(1e6, 999), 1e9),
		"with-zeros":       append(repeat(0, 500), seq(1, 500)...),
		"ascending":        seq(1, 4000),
		"descending":       reverse(seq(1, 4000)),
		"powers-of-gamma":  powers(1.0202020202, 500), // lands near bucket edges
		"tiny-and-huge":    {1e-9, 1e-3, 1, 1e3, 1e9, 1e15},
		"single":           {123456},
		"near-dup-extreme": append(repeat(9.999e8, 10), repeat(1.0001e9, 10)...),
	}
	for name, values := range streams {
		sk := NewSketch(0)
		for _, v := range values {
			sk.Observe(v)
		}
		checkAgainstExact(t, sk, values, name)
	}
}

func TestSketchNegativeValues(t *testing.T) {
	// Latencies are non-negative, but the sketch must stay sane on signed
	// data (e.g. clock-offset series): relative bound on |x|.
	values := []float64{-1e9, -5e8, -1e6, 0, 1e6, 5e8, 1e9}
	sk := NewSketch(0)
	for _, v := range values {
		sk.Observe(v)
	}
	for _, q := range testQuantiles {
		got := sk.Quantile(q)
		pos := q * float64(len(values)-1)
		lo := values[int(math.Floor(pos))]
		hi := values[int(math.Ceil(pos))]
		lob := lo - sk.Alpha()*math.Abs(lo)
		hib := hi + sk.Alpha()*math.Abs(hi)
		if got < lob || got > hib {
			t.Errorf("q=%g estimate %g outside [%g, %g]", q, got, lob, hib)
		}
	}
	if got := sk.Min(); got != -1e9 {
		t.Errorf("Min = %g, want -1e9", got)
	}
	if got := sk.Max(); got != 1e9 {
		t.Errorf("Max = %g, want 1e9", got)
	}
}

// The merge property: merge(a, b) must be identical (not just within bound)
// to the sketch of the concatenated stream, since bucket assignment is
// order-independent.
func TestSketchMergeEqualsSingleStream(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		na, nb := r.Intn(2000), r.Intn(2000)
		a, b := NewSketch(0), NewSketch(0)
		single := NewSketch(0)
		var all []float64
		for i := 0; i < na; i++ {
			v := math.Exp(r.NormFloat64()*3 + 12)
			a.Observe(v)
			single.Observe(v)
			all = append(all, v)
		}
		for i := 0; i < nb; i++ {
			v := math.Exp(r.NormFloat64()*3 + 12)
			b.Observe(v)
			single.Observe(v)
			all = append(all, v)
		}
		a.Merge(b)
		if a.Count() != single.Count() {
			t.Fatalf("merged count %d != single-stream count %d", a.Count(), single.Count())
		}
		if a.Min() != single.Min() || a.Max() != single.Max() {
			t.Fatalf("merged extremes (%g, %g) != single (%g, %g)", a.Min(), a.Max(), single.Min(), single.Max())
		}
		for _, q := range testQuantiles {
			if got, want := a.Quantile(q), single.Quantile(q); got != want {
				t.Fatalf("trial %d q=%g: merged %g != single-stream %g", trial, q, got, want)
			}
		}
		// And the merged sketch still satisfies the bound vs exact.
		checkAgainstExact(t, a, all, "merged")
	}
}

func TestSketchMergeManyShards(t *testing.T) {
	// Fleet-style: many per-vehicle sketches folded into one, any order.
	r := rand.New(rand.NewSource(3))
	shards := make([]*Sketch, 16)
	single := NewSketch(0)
	var all []float64
	for i := range shards {
		shards[i] = NewSketch(0)
		for j := 0; j < 200; j++ {
			v := r.Float64() * 1e8
			shards[i].Observe(v)
			single.Observe(v)
			all = append(all, v)
		}
	}
	r.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
	merged := NewSketch(0)
	for _, sh := range shards {
		merged.Merge(sh)
	}
	for _, q := range testQuantiles {
		if got, want := merged.Quantile(q), single.Quantile(q); got != want {
			t.Fatalf("q=%g: merged %g != single %g", q, got, want)
		}
	}
	checkAgainstExact(t, merged, all, "fleet-merge")
}

func TestSketchMergeAlphaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging sketches with different α should panic")
		}
	}()
	a, b := NewSketch(0.01), NewSketch(0.02)
	b.Observe(1)
	a.Merge(b)
}

func TestSketchAgainstSampleTypeSevenQuantile(t *testing.T) {
	// Direct comparison against the estimator the rest of the repo uses:
	// |sketch − sample| ≤ α·sample never holds exactly at interpolation
	// points, so assert the bracket derived in the Quantile doc comment.
	r := rand.New(rand.NewSource(2024))
	values := make([]float64, 977)
	for i := range values {
		values[i] = math.Abs(r.NormFloat64()) * 1e7
	}
	sample := stats.FromFloats(values)
	sk := NewSketch(0)
	for _, v := range values {
		sk.Observe(v)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := sample.Quantile(q)
		got := sk.Quantile(q)
		// The interpolated exact value and the sketch estimate target
		// adjacent order statistics; with α=1% and this sample size they
		// must agree to within ~2α of each other.
		if math.Abs(got-exact) > 2*sk.Alpha()*exact {
			t.Errorf("q=%g: sketch %g vs sample %g differ by more than 2α", q, got, exact)
		}
	}
}

func TestSketchEmptyAndInvalid(t *testing.T) {
	sk := NewSketch(0)
	if !math.IsNaN(sk.Quantile(0.5)) || !math.IsNaN(sk.Min()) || !math.IsNaN(sk.Max()) {
		t.Error("empty sketch should return NaN for quantiles and extremes")
	}
	sk.Observe(math.NaN())
	sk.Observe(math.Inf(1))
	sk.Observe(math.Inf(-1))
	if sk.Count() != 0 {
		t.Errorf("invalid observations must not count: got %d", sk.Count())
	}
	if sk.Invalid() != 3 {
		t.Errorf("Invalid = %d, want 3", sk.Invalid())
	}
	sk.Observe(7)
	if got := sk.Quantile(0.5); got != 7 {
		t.Errorf("single value median = %g, want exactly 7 (min/max clamp)", got)
	}
}

func TestSketchBucketCapCollapse(t *testing.T) {
	sk := NewSketch(0)
	sk.maxBkts = 8
	// 32 values in distinct buckets (powers of gamma^2 are 2 buckets apart).
	g2 := sk.gamma * sk.gamma
	v := 1.0
	var values []float64
	for i := 0; i < 32; i++ {
		values = append(values, v)
		sk.Observe(v)
		v *= g2
	}
	if sk.Buckets() > 8 {
		t.Errorf("bucket cap not enforced: %d buckets", sk.Buckets())
	}
	if sk.Collapsed() == 0 {
		t.Error("expected collapsed observations after exceeding the cap")
	}
	// High quantiles sit above the collapse point and keep the bound.
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.9, 0.95, 0.99, 1} {
		got := sk.Quantile(q)
		pos := q * float64(len(sorted)-1)
		lo := (1 - sk.Alpha()) * sorted[int(math.Floor(pos))]
		hi := (1 + sk.Alpha()) * sorted[int(math.Ceil(pos))]
		if got < lo || got > hi {
			t.Errorf("post-collapse q=%g estimate %g outside [%g, %g]", q, got, lo, hi)
		}
	}
	if sk.Count() != 32 {
		t.Errorf("collapse must not lose counts: %d", sk.Count())
	}
}

func TestSketchResetAndDuration(t *testing.T) {
	sk := NewSketch(0)
	sk.ObserveDuration(10 * time.Millisecond)
	if got := sk.Quantile(0.5); got != float64(10*time.Millisecond) {
		t.Errorf("single duration median = %g", got)
	}
	if sk.Sum() != float64(10*time.Millisecond) {
		t.Errorf("Sum = %g", sk.Sum())
	}
	sk.Reset()
	if sk.Count() != 0 || sk.Buckets() != 0 || !math.IsNaN(sk.Quantile(0.5)) {
		t.Error("Reset did not empty the sketch")
	}
	sk.Observe(3)
	if got := sk.Quantile(1); got != 3 {
		t.Errorf("post-reset max = %g, want 3", got)
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func seq(lo, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(lo + i)
	}
	return out
}

func reverse(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[len(vs)-1-i] = v
	}
	return out
}

func powers(base float64, n int) []float64 {
	out := make([]float64, n)
	v := 1.0
	for i := range out {
		out[i] = v
		v *= base
	}
	return out
}

// mapSketch is the map-backed bucket store the index-sorted store replaced,
// kept as the reference the store-equivalence tests compare against. It
// shares the Sketch's bucket mapping (index, estimate) and nothing else.
type mapSketch struct {
	cfg       *Sketch
	pos, neg  map[int]uint64
	zero      uint64
	count     uint64
	min, max  float64
	collapsed uint64
	invalid   uint64
}

func newMapSketch(maxBkts int) *mapSketch {
	cfg := NewSketch(0)
	cfg.maxBkts = maxBkts
	return &mapSketch{cfg: cfg, pos: map[int]uint64{}, neg: map[int]uint64{},
		min: math.Inf(1), max: math.Inf(-1)}
}

func (s *mapSketch) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.invalid++
		return
	}
	switch {
	case v == 0:
		s.zero++
	case v > 0:
		s.add(s.pos, s.cfg.index(v))
	default:
		s.add(s.neg, s.cfg.index(-v))
	}
	s.count++
	s.min, s.max = math.Min(s.min, v), math.Max(s.max, v)
}

func (s *mapSketch) add(store map[int]uint64, i int) {
	store[i]++
	if len(store) <= s.cfg.maxBkts {
		return
	}
	lo1, lo2 := math.MaxInt, math.MaxInt
	for k := range store {
		if k < lo1 {
			lo1, lo2 = k, lo1
		} else if k < lo2 {
			lo2 = k
		}
	}
	s.collapsed += store[lo1]
	store[lo2] += store[lo1]
	delete(store, lo1)
}

// Merge re-adds every observation of other one at a time, in Go map order.
func (s *mapSketch) Merge(other *mapSketch) {
	for i, c := range other.pos {
		for n := uint64(0); n < c; n++ {
			s.add(s.pos, i)
		}
	}
	for i, c := range other.neg {
		for n := uint64(0); n < c; n++ {
			s.add(s.neg, i)
		}
	}
	s.zero += other.zero
	s.count += other.count
	s.invalid += other.invalid
	s.collapsed += other.collapsed
	s.min, s.max = math.Min(s.min, other.min), math.Max(s.max, other.max)
}

func (s *mapSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := q * float64(s.count-1)
	v := s.max
	cum := uint64(0)
	neg, pos := sortedLayout(s.neg), sortedLayout(s.pos)
	found := false
	for j := len(neg) - 1; j >= 0 && !found; j-- {
		cum += neg[j].count
		if float64(cum) > rank {
			v, found = -s.cfg.estimate(neg[j].index), true
		}
	}
	if !found {
		cum += s.zero
		if s.zero > 0 && float64(cum) > rank {
			v, found = 0, true
		}
	}
	for j := 0; j < len(pos) && !found; j++ {
		cum += pos[j].count
		if float64(cum) > rank {
			v, found = s.cfg.estimate(pos[j].index), true
		}
	}
	return math.Min(math.Max(v, s.min), s.max)
}

type bucket struct {
	index int
	count uint64
}

func sortedLayout(store map[int]uint64) []bucket {
	var out []bucket
	for i, c := range store {
		out = append(out, bucket{i, c})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}

func storeLayout(st store) []bucket {
	var out []bucket
	for j, i := range st.keys {
		out = append(out, bucket{i, st.counts[j]})
	}
	return out
}

var equivalenceQuantiles = func() []float64 {
	qs := []float64{-1, 0, 1e-6, 0.001, 0.005}
	for q := 0.01; q < 1; q += 0.01 {
		qs = append(qs, q)
	}
	return append(qs, 0.995, 0.999, 1-1e-9, 1, 2)
}()

// randomStream draws a signed stream spanning many buckets, with exact
// zeros, repeated values and NaN/±Inf mixed in.
func randomStream(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch k := r.Intn(40); {
		case k == 0:
			out[i] = 0
		case k == 1:
			out[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
		case k == 2 && i > 0:
			out[i] = out[r.Intn(i)]
		default:
			v := math.Exp(r.Float64()*12 - 2)
			if r.Intn(4) == 0 {
				v = -v
			}
			out[i] = v
		}
	}
	return out
}

func sameQuantiles(t *testing.T, label string, got *Sketch, want *mapSketch) {
	t.Helper()
	for _, q := range equivalenceQuantiles {
		g, w := got.Quantile(q), want.Quantile(q)
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: Quantile(%g) = %g, reference %g", label, q, g, w)
		}
	}
}

func sameLayout(t *testing.T, label string, got *Sketch, want *mapSketch) {
	t.Helper()
	if !slices.Equal(storeLayout(got.pos), sortedLayout(want.pos)) ||
		!slices.Equal(storeLayout(got.neg), sortedLayout(want.neg)) || got.zero != want.zero {
		t.Fatalf("%s: bucket layout differs from the reference\npos %v\nref %v\nneg %v\nref %v",
			label, storeLayout(got.pos), sortedLayout(want.pos), storeLayout(got.neg), sortedLayout(want.neg))
	}
	if got.Count() != want.count || got.Invalid() != want.invalid {
		t.Fatalf("%s: count/invalid = %d/%d, reference %d/%d", label, got.Count(), got.Invalid(), want.count, want.invalid)
	}
	if got.Count() > 0 && (got.Min() != want.min || got.Max() != want.max) {
		t.Fatalf("%s: extremes (%g, %g), reference (%g, %g)", label, got.Min(), got.Max(), want.min, want.max)
	}
	wantBuckets := len(want.pos) + len(want.neg)
	if want.zero > 0 {
		wantBuckets++
	}
	if got.Buckets() != wantBuckets {
		t.Fatalf("%s: Buckets = %d, reference %d", label, got.Buckets(), wantBuckets)
	}
}

// TestSketchStoreMatchesMapReference: on random signed streams under small
// bucket caps, the index-sorted store answers every quantile and counter
// exactly as the map store it replaced, collapse counter included.
func TestSketchStoreMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		cap := 2 + r.Intn(39)
		sk, ref := NewSketch(0), newMapSketch(cap)
		sk.maxBkts = cap
		for _, v := range randomStream(r, r.Intn(1500)) {
			sk.Observe(v)
			ref.Observe(v)
		}
		label := fmt.Sprintf("trial %d (cap %d, n %d)", trial, cap, sk.Count())
		sameLayout(t, label, sk, ref)
		sameQuantiles(t, label, sk, ref)
		if sk.Collapsed() != ref.collapsed {
			t.Fatalf("%s: Collapsed = %d, reference %d", label, sk.Collapsed(), ref.collapsed)
		}
	}
}

// capShards builds shards of random streams under one small bucket cap,
// with their map-store references.
func capShards(r *rand.Rand, cap int) ([]*Sketch, []*mapSketch) {
	n := 2 + r.Intn(5)
	shards, refs := make([]*Sketch, n), make([]*mapSketch, n)
	for i := range shards {
		shards[i], refs[i] = NewSketch(0), newMapSketch(cap)
		shards[i].maxBkts = cap
		for _, v := range randomStream(r, r.Intn(600)) {
			shards[i].Observe(v)
			refs[i].Observe(v)
		}
	}
	return shards, refs
}

// TestSketchMergeMatchesMapReference: whole-bucket merges give the same
// quantiles and bucket layout as the reference's one-observation-at-a-time
// merge, under cap pressure too.
func TestSketchMergeMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		cap := 2 + r.Intn(39)
		shards, refs := capShards(r, cap)
		merged, ref := NewSketch(0), newMapSketch(cap)
		merged.maxBkts = cap
		for i := range shards {
			merged.Merge(shards[i])
			ref.Merge(refs[i])
		}
		label := fmt.Sprintf("trial %d (cap %d, %d shards)", trial, cap, len(shards))
		sameLayout(t, label, merged, ref)
		sameQuantiles(t, label, merged, ref)
	}
}

// TestSketchMergeCollapsedDeterministic: under cap pressure, merging the
// same shards repeatedly reports one Collapsed value. The count depends on
// fold order (collapsed mass can collapse again), so a merge that iterated
// a Go map gave a different count from run to run.
func TestSketchMergeCollapsedDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	varied := 0
	for trial := 0; trial < 50; trial++ {
		cap := 2 + r.Intn(39)
		shards, _ := capShards(r, cap)
		seen := map[uint64]bool{}
		for rep := 0; rep < 20; rep++ {
			merged := NewSketch(0)
			merged.maxBkts = cap
			for _, sh := range shards {
				merged.Merge(sh)
			}
			seen[merged.Collapsed()] = true
		}
		if len(seen) != 1 {
			t.Fatalf("trial %d (cap %d): 20 identical merges gave %d different Collapsed values", trial, cap, len(seen))
		}
		for v := range seen {
			if v > 0 {
				varied++
			}
		}
	}
	if varied == 0 {
		t.Fatal("no trial collapsed: the test does not exercise cap pressure")
	}
}

// TestSketchQuantileAllocFree gates the scrape path: a quantile read is one
// in-order walk of the store, and observing into an existing bucket is a
// binary search and an increment — neither allocates.
func TestSketchQuantileAllocFree(t *testing.T) {
	sk := NewSketch(0)
	for _, v := range randomStream(rand.New(rand.NewSource(23)), 5000) {
		sk.Observe(v)
	}
	if sk.Buckets() < 100 || len(sk.neg.keys) == 0 || sk.zero == 0 {
		t.Fatalf("populated sketch too small: %d buckets", sk.Buckets())
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		for _, q := range testQuantiles {
			sink += sk.Quantile(q)
			v, _ := sk.QuantileOK(q)
			sink += v
		}
	}); n != 0 {
		t.Errorf("Quantile/QuantileOK: %v allocs per run, want 0", n)
	}
	existing := sk.Quantile(0.5)
	if n := testing.AllocsPerRun(100, func() { sk.Observe(existing) }); n != 0 {
		t.Errorf("Observe into an existing bucket: %v allocs per run, want 0", n)
	}
}
