package chainmon

import (
	"io"
	"runtime"
	"testing"
	"time"

	"chainmon/internal/budget"
	"chainmon/internal/experiments"
	"chainmon/internal/monitor"
	rt "chainmon/internal/runtime"
	"chainmon/internal/runtime/walltime"
	"chainmon/internal/sim"
	"chainmon/internal/weaklyhard"
)

// The benchmarks below regenerate every figure of the paper's evaluation;
// run them with -benchtime=1x for one full experiment per figure, or use
// cmd/experiments for the full-length runs with printed reports.

// BenchmarkFig9SegmentLatencies reproduces Fig. 9: segment latencies on
// ECU2 with and without monitoring (4700 activations in the paper; a
// shorter run per iteration here).
func BenchmarkFig9SegmentLatencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig9(400, int64(i)+1, 1)
		if sim.Duration(r.ObjectsMon.Max()) > 105*sim.Millisecond {
			b.Fatal("monitored latency bound violated")
		}
		r.Report(io.Discard)
	}
}

// BenchmarkFig10ExceptionLatencies reproduces Fig. 10: the latency of the
// temporal exception cases only.
func BenchmarkFig10ExceptionLatencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig9(400, int64(i)+1, 1)
		if r.ObjectsExc.Len() == 0 {
			b.Fatal("no exception cases")
		}
		r.ReportFig10(io.Discard)
	}
}

// BenchmarkFig11Overheads reproduces Fig. 11 on the real wall-clock
// implementation: posting overheads, monitor latency and execution time.
func BenchmarkFig11Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig11(200, 100*time.Microsecond)
		if r.MonLatency.Len() == 0 {
			b.Fatal("no measurements")
		}
		r.Report(io.Discard)
	}
}

// BenchmarkFig12RemoteExceptionEntry reproduces Fig. 12: exception entry
// latency of remote monitoring in the DDS context vs the monitor thread,
// across load levels.
func BenchmarkFig12RemoteExceptionEntry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig12(160, int64(i)+1, []float64{0, 0.9}, 1)
		r.Report(io.Discard)
	}
}

// BenchmarkFig6RemoteMonitorComparison reproduces the Fig. 6 / §III-B
// comparison of inter-arrival vs synchronization-based monitoring.
func BenchmarkFig6RemoteMonitorComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig6(120, int64(i)+1, 1)
		experiments.ReportFig6(io.Discard, rows)
	}
}

// BenchmarkFig3ErrorPropagation reproduces the Fig. 3 error-case chain
// execution (recovery at the fusion, explicit propagation at the fused
// remote segment).
func BenchmarkFig3ErrorPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig3(int64(i) + 1)
		if !r.RearRecovered || !r.FusedPropagated {
			b.Fatal("error-case narrative did not reproduce")
		}
		r.Report(io.Discard)
	}
}

// BenchmarkBudgetSolver reproduces the Section III-C budgeting experiment:
// trace recording plus the (m,k) × B_e2e schedulability sweep.
func BenchmarkBudgetSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunBudgeting(200, int64(i)+1)
		if len(r.Cells) == 0 {
			b.Fatal("no budget cells")
		}
		r.Report(io.Discard)
	}
}

// BenchmarkAblationEpsilon runs the ε-term ablation of the sync-based
// deadline formula.
func BenchmarkAblationEpsilon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunEpsilonAblation(150, int64(i)+1,
			[]time.Duration{0, 200 * time.Microsecond, 500 * time.Microsecond}, 1)
		if rows[0].CompensatedFalsePos != 0 {
			b.Fatal("false positives with the ε term")
		}
	}
}

// BenchmarkAblationDeadlineSweep runs the d_mon vs miss-rate trade-off.
func BenchmarkAblationDeadlineSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunDeadlineSweep(200, int64(i)+1,
			[]time.Duration{60 * time.Millisecond, 100 * time.Millisecond, 140 * time.Millisecond}, 1)
	}
}

// BenchmarkAblationBufferOrder runs the fixed-processing-order ablation.
func BenchmarkAblationBufferOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunOrderAblation(200, int64(i)+1, 1)
	}
}

// --- Microbenchmarks of the performance-critical primitives. ---

// BenchmarkRingPost measures one start-event post into the wait-free ring
// (the paper's "start-event overhead", sans monitor wakeup).
func BenchmarkRingPost(b *testing.B) {
	r := walltime.NewRing(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Post(rt.Event{Act: uint64(i)}) {
			// Drain in bulk when full (consumer role).
			for {
				if _, ok := r.Pop(); !ok {
					break
				}
			}
		}
	}
}

// BenchmarkRingPostPop measures a post/pop round trip.
func BenchmarkRingPostPop(b *testing.B) {
	r := walltime.NewRing(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Post(rt.Event{Act: uint64(i)})
		r.Pop()
	}
}

// BenchmarkMonitorWakeLatency measures the full post→verdict path of the
// wall-clock monitor: start post, semaphore wake, drain, timeout arm, end
// post and the verdict bookkeeping on the monitor goroutine. Every half
// ring the producer waits for the monitor to drain both rings, so no post
// is dropped: an overrun ring would measure rejected posts instead.
func BenchmarkMonitorWakeLatency(b *testing.B) {
	const ringCap = 1 << 12
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := monitor.NewWallclockMonitor(clock, sem,
		func() rt.EventRing { return walltime.NewRing(ringCap) }, 1)
	seg := mon.AddSegment(monitor.SegmentConfig{Name: "bench", DMon: time.Second})
	rings := mon.Core().Segments()[0]
	loop := walltime.NewLoop(clock, sem)
	loop.Scan = mon.ScanNow
	loop.Next = mon.Core().NextDeadline
	loop.Start()
	defer loop.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.StartInjected(uint64(i))
		seg.EndInjected(uint64(i))
		if (i+1)%(ringCap/2) == 0 {
			for rings.StartRing().Len()+rings.EndRing().Len() > 0 {
				sem.Wake()
				runtime.Gosched()
			}
		}
	}
	b.StopTimer()
	if d := seg.Dropped(); d != 0 {
		b.Fatalf("%d posts dropped", d)
	}
}

// BenchmarkMKCounter measures the online (m,k) sliding-window record.
func BenchmarkMKCounter(b *testing.B) {
	ctr := weaklyhard.NewCounter(weaklyhard.Constraint{M: 3, K: 20})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr.Record(i%7 == 0)
	}
}

// BenchmarkWindowAnalysis measures the offline window scan used by the
// budgeting verifier.
func BenchmarkWindowAnalysis(b *testing.B) {
	misses := make([]bool, 4700)
	for i := range misses {
		misses[i] = i%5 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weaklyhard.MaxMissesInAnyWindow(misses, 10)
	}
}

// BenchmarkSolveExact measures the branch-and-bound solver on a
// three-segment propagating instance.
func BenchmarkSolveExact(b *testing.B) {
	p := budget.Problem{
		Be2e:       600,
		Constraint: weaklyhard.Constraint{M: 1, K: 5},
	}
	rng := sim.NewRNG(1)
	for s := 0; s < 3; s++ {
		lat := make([]int64, 200)
		for i := range lat {
			lat[i] = int64(50 + rng.Intn(100))
		}
		p.Segments = append(p.Segments, budget.SegmentInput{Name: "s", Latencies: lat, Propagation: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := budget.SolveExact(p, 24); !a.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkSolveGreedy measures the heuristic on the same instance shape.
func BenchmarkSolveGreedy(b *testing.B) {
	p := budget.Problem{
		Be2e:       600,
		Constraint: weaklyhard.Constraint{M: 1, K: 5},
	}
	rng := sim.NewRNG(1)
	for s := 0; s < 3; s++ {
		lat := make([]int64, 200)
		for i := range lat {
			lat[i] = int64(50 + rng.Intn(100))
		}
		p.Segments = append(p.Segments, budget.SegmentInput{Name: "s", Latencies: lat, Propagation: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		budget.SolveGreedy(p)
	}
}

// BenchmarkSimulationThroughput measures raw kernel event throughput.
func BenchmarkSimulationThroughput(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			k.After(100, fn)
		}
	}
	b.ResetTimer()
	k.After(100, fn)
	k.Run()
}
