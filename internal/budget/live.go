// Live-input frontend: build budgeting problems from streaming quantile
// snapshots (internal/livestats sketches or a scraped /health document)
// instead of recorded traces. The offline trace path stays a second
// frontend over the same solver core — both produce a Problem, so the
// adaptive control loop and `budgetsolve -from-health` provably compute
// the same answer on the same snapshot.
package budget

import (
	"fmt"
	"math"
	"sort"

	"chainmon/internal/livestats"
	"chainmon/internal/weaklyhard"
)

// QuantilePoint is one (quantile, latency) point of a live distribution.
type QuantilePoint struct {
	Q  float64 // cumulative fraction in (0, 1]
	NS float64 // latency bound at that fraction, in nanoseconds
}

// LiveSegment is one segment's live distribution summary.
type LiveSegment struct {
	Name        string
	Propagation int
	// Count is how many latencies the live sketch observed. Zero marks an
	// unobserved segment, which the frontend skips — solving on a
	// zero-filled distribution would assign it a meaningless deadline.
	Count uint64
	// Points are the known quantile points, any order; Build sorts them.
	Points []QuantilePoint
}

// LiveProblem parameterizes a budgeting instance over live quantile
// snapshots. DEx/Be2e/Bseg/Constraint mirror Problem.
type LiveProblem struct {
	Segments   []LiveSegment
	DEx        int64
	Be2e       int64
	Bseg       int64
	Constraint weaklyhard.Constraint
	// TraceLen is the length of the pseudo-trace synthesized per segment
	// (0 selects DefaultLiveTraceLen). It sets the resolution at which the
	// quantile mass fractions are represented: with 200 activations, a p99
	// tail is two activations wide.
	TraceLen int
}

// DefaultLiveTraceLen is the default synthesized pseudo-trace length.
const DefaultLiveTraceLen = 200

// SnapshotPoints converts a /health quantile snapshot into the frontend's
// point form (p50, p95, p99, max).
func SnapshotPoints(qs livestats.QuantileSnapshot) []QuantilePoint {
	return []QuantilePoint{
		{Q: 0.50, NS: qs.P50NS},
		{Q: 0.95, NS: qs.P95NS},
		{Q: 0.99, NS: qs.P99NS},
		{Q: 1.00, NS: qs.MaxNS},
	}
}

// FromHealth extracts live segments from a /health document in the given
// chain order (the document's maps carry no order, but propagation makes
// order part of the problem). prop maps a segment name to its propagation
// factor p_l; nil means every miss propagates (p_l = 1), the conservative
// default for monitored chains. The document is outside input: a quantile
// that is not a latency in [0, 2^63) ns is an error, not a wrapped
// deadline.
func FromHealth(h livestats.Health, order []string, prop func(name string) int) ([]LiveSegment, error) {
	out := make([]LiveSegment, 0, len(order))
	for _, name := range order {
		sh, ok := h.Segments[name]
		if !ok {
			return nil, fmt.Errorf("budget: segment %q not in health snapshot", name)
		}
		pts := SnapshotPoints(sh.Latency)
		for _, pt := range pts {
			if !(pt.NS >= 0 && pt.NS < math.MaxInt64) {
				return nil, fmt.Errorf("budget: segment %q quantile %g is %g ns, not a latency", name, pt.Q, pt.NS)
			}
		}
		p := 1
		if prop != nil {
			p = prop(name)
		}
		out = append(out, LiveSegment{
			Name:        name,
			Propagation: p,
			Count:       sh.Latency.Count,
			Points:      pts,
		})
	}
	return out, nil
}

// Build synthesizes a trace-based Problem from the live distributions and
// returns it along with the names of skipped (unobserved) segments.
//
// Each observed segment gets a deterministic pseudo-trace of TraceLen
// sorted ascending latencies: activation j takes the latency bound of the
// smallest quantile point covering rank fraction (j+1)/n, i.e. every
// activation is rounded UP to the next known quantile bound. Two
// conservatisms follow. First, each synthesized latency is an upper bound
// on the distribution's value at its rank. Second, sorting ascending
// clusters all would-be misses adjacently at the tail of the trace — the
// adversarial arrangement for (m,k) windows of consecutive activations —
// so a deadline assignment feasible on the pseudo-trace is feasible on
// every arrival order of the same distribution. The solvers then run
// unchanged on the synthesized Problem.
func (lp LiveProblem) Build() (Problem, []string, error) {
	n := lp.TraceLen
	if n <= 0 {
		n = DefaultLiveTraceLen
	}
	var skipped []string
	segs := make([]SegmentInput, 0, len(lp.Segments))
	for _, s := range lp.Segments {
		if s.Count == 0 || len(s.Points) == 0 {
			skipped = append(skipped, s.Name)
			continue
		}
		pts := append([]QuantilePoint(nil), s.Points...)
		sort.Slice(pts, func(i, j int) bool { return pts[i].Q < pts[j].Q })
		trace := make([]int64, n)
		for j := 0; j < n; j++ {
			f := float64(j+1) / float64(n)
			v := pts[len(pts)-1].NS
			for _, p := range pts {
				if f <= p.Q {
					v = p.NS
					break
				}
			}
			trace[j] = int64(v)
		}
		segs = append(segs, SegmentInput{Name: s.Name, Latencies: trace, Propagation: s.Propagation})
	}
	if len(segs) == 0 {
		return Problem{}, skipped, fmt.Errorf("budget: no observed segments in live input")
	}
	return Problem{
		Segments: segs, DEx: lp.DEx, Be2e: lp.Be2e, Bseg: lp.Bseg,
		Constraint: lp.Constraint,
	}, skipped, nil
}
