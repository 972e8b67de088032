// Budgeting: the paper's measurement-based deadline determination
// (Section III-C), end to end.
//
// Step 1 records an unmonitored trace of the perception chain. Step 2
// extends the recorded latencies by the exception-handling WCRT d_ex and
// solves the constraint satisfaction problem of Eqs. 2–7 for a weakly-hard
// (m,k) constraint and an end-to-end budget. Step 3 deploys the solved
// deadlines as the monitors' d_mon and validates online that the (m,k)
// constraint holds on a fresh run.
package main

import (
	"fmt"
	"log"

	"chainmon"
)

func main() {
	const frames = 600
	// The deployed requirement is (2,10); the deadlines are budgeted for
	// the stricter (1,10) so the fresh run has margin against the
	// measured trace not being fully representative.
	mk := chainmon.Constraint{M: 2, K: 10}
	mkSolve := chainmon.Constraint{M: 1, K: 10}
	// The seed-1 trace needs Σd = 331.5 ms under (1,10): its objects
	// segment alone reaches 295 ms. 400 ms leaves headroom, so a small
	// shift in the simulated latencies does not make the chain
	// unschedulable.
	be2e := 400 * chainmon.Millisecond
	dEx := chainmon.Millisecond

	// --- Step 1: record an unmonitored trace. ---
	cfg := chainmon.DefaultPerceptionConfig()
	cfg.Frames = frames
	cfg.Monitored = false
	unmon := chainmon.BuildPerception(cfg)
	rec := unmon.RecordTrace()
	unmon.Run()
	tr := rec.Trace()

	segNames := []string{chainmon.SegFusionFront, chainmon.SegFusedRemote, chainmon.SegObjectsLocal}
	fmt.Printf("recorded %d frames; segment latency medians:\n", frames)
	for _, name := range segNames {
		st := tr.Segment(name)
		fmt.Printf("  %-20s med=%v max=%v (n=%d)\n", name,
			chainmon.Duration(st.Sample().Median()), chainmon.Duration(st.Sample().Max()),
			len(st.Latencies))
	}

	// --- Step 2: solve the budgeting CSP with propagation (p=1). ---
	problem := chainmon.BudgetProblem{
		DEx:        int64(dEx),
		Be2e:       int64(be2e),
		Bseg:       int64(cfg.Period) * 4,
		Constraint: mkSolve,
	}
	aligned := align(tr, segNames)
	for i, name := range segNames {
		problem.Segments = append(problem.Segments, chainmon.BudgetSegment{
			Name: name, Latencies: aligned[i], Propagation: 1,
		})
	}
	ok, sol := chainmon.Schedulable(problem)
	if !ok {
		log.Fatalf("chain not schedulable within %v under %v: %s", be2e, mkSolve, sol.Reason)
	}
	fmt.Printf("\nschedulable under %v with B_e2e=%v: Σd=%v (%.0f%% of budget)\n",
		mkSolve, be2e, chainmon.Duration(sol.Sum), 100*float64(sol.Sum)/float64(problem.Be2e))
	for i, d := range sol.Deadlines {
		fmt.Printf("  %-20s d = %v\n", segNames[i], chainmon.Duration(d))
	}

	// --- Step 3: deploy the deadlines and validate online. ---
	run := chainmon.DefaultPerceptionConfig()
	run.Frames = frames
	run.Seed = 2 // a different day on the road
	run.FullChain = true
	run.Constraint = mk
	// Deploy: d_mon = d - d_ex for the solved segments.
	run.LocalDeadline = chainmon.Duration(sol.Deadlines[2]) - dEx
	run.RemoteDeadline = chainmon.Duration(sol.Deadlines[1]) - dEx
	s := chainmon.BuildPerception(run)
	s.Run()

	exec, recd, viol := s.ChainFront.Totals()
	_, _, winViol := s.ChainFront.Counter().Totals()
	fmt.Printf("\nonline validation over %d executions: %d recovered, %d violations,\n"+
		"(m,k) window violations: %d\n", exec, recd, viol, winViol)
	for _, seg := range s.ChainFront.Segments() {
		fmt.Printf("  %s\n", seg.Stats().Summary())
	}
	if winViol == 0 {
		fmt.Println("\nthe deployed deadlines kept the weakly-hard constraint ✓")
	} else {
		fmt.Println("\nthe fresh run violated the window constraint — the trace was not representative")
	}
}

// align restricts the segments to commonly recorded activations.
func align(tr *chainmon.Trace, names []string) [][]int64 {
	count := map[uint64]int{}
	for _, name := range names {
		for _, a := range tr.Segment(name).Activations {
			count[a]++
		}
	}
	out := make([][]int64, len(names))
	for i, name := range names {
		st := tr.Segment(name)
		for j, a := range st.Activations {
			if count[a] == len(names) {
				out[i] = append(out[i], int64(st.Latencies[j]))
			}
		}
	}
	return out
}
