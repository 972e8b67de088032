package experiments

import (
	"fmt"
	"io"

	"chainmon/internal/budget"
	"chainmon/internal/perception"
	"chainmon/internal/rta"
	"chainmon/internal/sim"
	"chainmon/internal/stats"
	"chainmon/internal/trace"
	"chainmon/internal/weaklyhard"
)

// BudgetCell is one entry of the schedulability table: the minimum feasible
// deadline assignment for a (m,k) constraint and an end-to-end budget.
type BudgetCell struct {
	Constraint  weaklyhard.Constraint
	Be2e        sim.Duration
	Schedulable bool
	Sum         sim.Duration
	Deadlines   []sim.Duration
}

// BudgetResult is the Section III-C experiment output.
type BudgetResult struct {
	SegmentNames []string
	TraceLen     int
	DEx          sim.Duration
	Cells        []BudgetCell
	// E2E is the recorded end-to-end latency distribution of the chain
	// (front lidar publication → objects reception), for comparing the
	// budgeted deadline sums against what the chain actually needs.
	E2E *stats.Sample
}

// RunBudgeting reproduces the Section III-C budgeting flow end to end:
// record an unmonitored trace of the perception chain (fusion local segment,
// fused remote segment, objects local segment), extend the latencies by
// d_ex, and solve the constraint satisfaction problem (Eqs. 2–7, with
// propagation p = 1) across a grid of (m,k) constraints and end-to-end
// budgets.
func RunBudgeting(frames int, seed int64) BudgetResult {
	cfg := perception.DefaultConfig()
	cfg.Frames = frames
	cfg.Seed = seed
	cfg.Monitored = false
	s := perception.Build(cfg)
	rec := s.RecordTrace()
	s.Run()
	tr := rec.Trace()

	segs := []string{perception.SegFusionFront, perception.SegFusedRemote, perception.SegObjectsLocal}
	aligned := alignSegments(tr, segs)

	// d_ex from analysis, per the paper's footnote 1: the exception
	// handlers are safety-critical, so their WCRT on the monitor thread is
	// bounded analytically (handlers of both evaluation segments plus the
	// monitor's scan work, FIFO at the same priority), then rounded up.
	handlerSet := rta.MonitorHandlerSet{
		ScanWCET:   150 * sim.Microsecond,
		ScanPeriod: 10 * sim.Millisecond,
		Handlers: []rta.Task{
			{Name: "objects", WCET: 200 * sim.Microsecond, Period: cfg.Period},
			{Name: "ground", WCET: 200 * sim.Microsecond, Period: cfg.Period},
		},
	}
	dEx := sim.Millisecond // fallback
	if _, bound, err := handlerSet.DEx(); err == nil {
		// Round the analytical bound up to a whole 100 µs for reporting.
		dEx = (bound/sim.Duration(100*sim.Microsecond) + 1) * 100 * sim.Microsecond
	}

	res := BudgetResult{SegmentNames: segs, DEx: dEx}
	if e2e := tr.Segment(perception.SegE2EFront); e2e != nil {
		res.E2E = e2e.Sample()
	}
	if len(aligned) == 0 || len(aligned[0]) == 0 {
		return res
	}
	res.TraceLen = len(aligned[0])

	constraints := []weaklyhard.Constraint{
		{M: 0, K: 10}, {M: 1, K: 10}, {M: 2, K: 10}, {M: 3, K: 10}, {M: 5, K: 10},
	}
	budgets := []sim.Duration{150 * sim.Millisecond, 250 * sim.Millisecond, 400 * sim.Millisecond, 800 * sim.Millisecond}
	for _, c := range constraints {
		for _, be2e := range budgets {
			p := budget.Problem{
				DEx:        int64(dEx),
				Be2e:       int64(be2e),
				Bseg:       int64(cfg.Period) * 4, // throughput cap: pipeline depth 4
				Constraint: c,
			}
			for i, name := range segs {
				p.Segments = append(p.Segments, budget.SegmentInput{
					Name: name, Latencies: aligned[i], Propagation: 1,
				})
			}
			ok, a := budget.Schedulable(p)
			cell := BudgetCell{Constraint: c, Be2e: be2e, Schedulable: ok}
			if ok {
				cell.Sum = sim.Duration(a.Sum)
				for _, d := range a.Deadlines {
					cell.Deadlines = append(cell.Deadlines, sim.Duration(d))
				}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res
}

// alignSegments returns the latency series of the named segments restricted
// to the activations every segment recorded, in activation order.
func alignSegments(tr *trace.Trace, names []string) [][]int64 {
	common := map[uint64]int{}
	for _, name := range names {
		st := tr.Segment(name)
		if st == nil {
			return nil
		}
		for _, a := range st.Activations {
			common[a]++
		}
	}
	out := make([][]int64, len(names))
	for i, name := range names {
		st := tr.Segment(name)
		for j, a := range st.Activations {
			if common[a] == len(names) {
				out[i] = append(out[i], int64(st.Latencies[j]))
			}
		}
	}
	return out
}

// Report prints the schedulability table.
func (r BudgetResult) Report(w io.Writer) {
	section(w, "Section III-C — Trace-based segment deadline budgeting (Eqs. 2–7)",
		fmt.Sprintf("Recorded %d aligned activations for segments %v; extended by\n"+
			"d_ex = %v (worst-case exception-handling response time from\n"+
			"fixed-priority analysis per footnote 1, rounded up); propagation p = 1\n"+
			"for every segment. Each cell is the minimum deadline assignment found\n"+
			"(greedy heuristic verified against Eqs. 5–7, exact branch-and-bound\n"+
			"fallback).", r.TraceLen, r.SegmentNames, r.DEx))
	fmt.Fprintf(w, "%-8s %-10s %-14s %-14s %s\n", "(m,k)", "B_e2e", "schedulable", "Σd", "deadlines")
	for _, c := range r.Cells {
		if c.Schedulable {
			fmt.Fprintf(w, "%-8s %-10v %-14v %-14v %v\n", c.Constraint, c.Be2e, true, c.Sum, c.Deadlines)
		} else {
			fmt.Fprintf(w, "%-8s %-10v %-14v %-14s %s\n", c.Constraint, c.Be2e, false, "-", "-")
		}
	}
	if r.E2E != nil && r.E2E.Len() > 0 {
		fmt.Fprintf(w, "\nrecorded end-to-end latency (front lidar → objects at plan):\n%s\n",
			r.E2E.Tukey().DurationRow(perception.SegE2EFront))
	}
}
