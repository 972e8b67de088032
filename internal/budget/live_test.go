package budget

import (
	"math"
	"testing"

	"chainmon/internal/livestats"
	"chainmon/internal/weaklyhard"
)

func ms(n int64) float64 { return float64(n) * 1e6 }

// TestLiveBuildSynthesizesSortedCeiledTrace pins the pseudo-trace
// construction: ascending, every value rounded up to the covering quantile
// bound, with the exact mass split implied by the point fractions.
func TestLiveBuildSynthesizesSortedCeiledTrace(t *testing.T) {
	lp := LiveProblem{
		Segments: []LiveSegment{{
			Name: "s", Count: 1000,
			Points: []QuantilePoint{{Q: 1, NS: ms(40)}, {Q: 0.5, NS: ms(10)}, {Q: 0.95, NS: ms(20)}, {Q: 0.99, NS: ms(30)}},
		}},
		Be2e: int64(ms(100)), Constraint: weaklyhard.Constraint{M: 2, K: 10},
		TraceLen: 100,
	}
	p, skipped, err := lp.Build()
	if err != nil || len(skipped) != 0 {
		t.Fatalf("Build: err=%v skipped=%v", err, skipped)
	}
	trace := p.Segments[0].Latencies
	if len(trace) != 100 {
		t.Fatalf("trace length %d, want 100", len(trace))
	}
	counts := map[int64]int{}
	prev := int64(0)
	for _, v := range trace {
		if v < prev {
			t.Fatalf("trace not ascending: %d after %d", v, prev)
		}
		prev = v
		counts[v]++
	}
	// 50% at the p50 bound, 45% at p95, 4% at p99, 1% at max.
	want := map[int64]int{int64(ms(10)): 50, int64(ms(20)): 45, int64(ms(30)): 4, int64(ms(40)): 1}
	for v, n := range want {
		if counts[v] != n {
			t.Fatalf("value %d appears %d times, want %d (counts %v)", v, counts[v], n, want)
		}
	}
}

// TestLiveBuildSkipsUnobservedSegments is the satellite fix: zero-count
// segments are excluded from the problem, not solved on zeros.
func TestLiveBuildSkipsUnobservedSegments(t *testing.T) {
	lp := LiveProblem{
		Segments: []LiveSegment{
			{Name: "dark", Count: 0, Points: []QuantilePoint{{Q: 1, NS: 0}}},
			{Name: "lit", Count: 5, Points: []QuantilePoint{{Q: 1, NS: ms(5)}}},
		},
		Be2e: int64(ms(100)), Constraint: weaklyhard.Constraint{M: 0, K: 1},
	}
	p, skipped, err := lp.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(skipped) != 1 || skipped[0] != "dark" {
		t.Fatalf("skipped %v, want [dark]", skipped)
	}
	if len(p.Segments) != 1 || p.Segments[0].Name != "lit" {
		t.Fatalf("problem segments %+v, want only lit", p.Segments)
	}
	all := LiveProblem{Segments: lp.Segments[:1], Be2e: 1, Constraint: weaklyhard.Constraint{M: 0, K: 1}}
	if _, _, err := all.Build(); err == nil {
		t.Fatal("Build with only unobserved segments must error, not solve on zeros")
	}
}

// TestLiveFromHealthRoundTrip pins that a /health document feeds the
// frontend exactly: same counts and quantile points, chain order preserved,
// and a missing segment is a hard error (a typo must not become an
// unconstrained chain).
func TestLiveFromHealthRoundTrip(t *testing.T) {
	h := livestats.Health{Segments: map[string]livestats.ScopeHealth{
		"a": {Latency: livestats.QuantileSnapshot{Count: 7, P50NS: ms(1), P95NS: ms(2), P99NS: ms(3), MaxNS: ms(4)}},
		"b": {Latency: livestats.QuantileSnapshot{Count: 0}},
	}}
	segs, err := FromHealth(h, []string{"b", "a"}, func(string) int { return 0 })
	if err != nil {
		t.Fatalf("FromHealth: %v", err)
	}
	if len(segs) != 2 || segs[0].Name != "b" || segs[1].Name != "a" {
		t.Fatalf("segments %+v, want order [b a]", segs)
	}
	if segs[1].Count != 7 || segs[1].Propagation != 0 {
		t.Fatalf("segment a carried %+v", segs[1])
	}
	if got := segs[1].Points[3]; got != (QuantilePoint{Q: 1, NS: ms(4)}) {
		t.Fatalf("max point %+v", got)
	}
	if _, err := FromHealth(h, []string{"nope"}, nil); err == nil {
		t.Fatal("missing segment must be an error")
	}
	for _, bad := range []float64{-1, 1e19, math.Inf(1)} {
		h.Segments["c"] = livestats.ScopeHealth{Latency: livestats.QuantileSnapshot{Count: 1, P50NS: ms(1), P95NS: ms(2), P99NS: ms(3), MaxNS: bad}}
		if _, err := FromHealth(h, []string{"c"}, nil); err == nil {
			t.Fatalf("a %g ns quantile must be an error, not a latency", bad)
		}
	}
}

// TestLiveSolveIsDeterministic pins the frontend→solver pipeline the
// control loop and budgetsolve share: the same snapshot always yields the
// same assignment.
func TestLiveSolveIsDeterministic(t *testing.T) {
	mk := func() LiveProblem {
		return LiveProblem{
			Segments: []LiveSegment{
				{Name: "x", Count: 100, Propagation: 1,
					Points: []QuantilePoint{{Q: 0.5, NS: ms(3)}, {Q: 0.95, NS: ms(6)}, {Q: 0.99, NS: ms(9)}, {Q: 1, NS: ms(12)}}},
				{Name: "y", Count: 100, Propagation: 1,
					Points: []QuantilePoint{{Q: 0.5, NS: ms(2)}, {Q: 0.95, NS: ms(4)}, {Q: 0.99, NS: ms(8)}, {Q: 1, NS: ms(16)}}},
			},
			DEx: int64(ms(1)), Be2e: int64(ms(40)), Bseg: int64(ms(25)),
			Constraint: weaklyhard.Constraint{M: 2, K: 10},
		}
	}
	p1, _, err1 := mk().Build()
	p2, _, err2 := mk().Build()
	if err1 != nil || err2 != nil {
		t.Fatalf("Build: %v / %v", err1, err2)
	}
	ok1, a1 := Schedulable(p1)
	ok2, a2 := Schedulable(p2)
	if !ok1 || !ok2 {
		t.Fatalf("schedulable: %v (%s) / %v (%s)", ok1, a1.Reason, ok2, a2.Reason)
	}
	if a1.String() != a2.String() {
		t.Fatalf("assignments differ: %s vs %s", a1, a2)
	}
	if verified, why := p1.Verify(a1.Deadlines); !verified {
		t.Fatalf("assignment fails Verify: %s", why)
	}
}
