package sim_test

import (
	"testing"

	"chainmon/internal/sim"
)

func TestQueueProbeObservesHeapOps(t *testing.T) {
	k := sim.NewKernel()
	var calls int
	var lastDepth int
	k.SetQueueProbe(func(depth int) {
		calls++
		lastDepth = depth
		if depth != k.Pending() {
			t.Fatalf("probe depth %d != Pending %d", depth, k.Pending())
		}
	})
	e1 := k.At(10, func() {})
	k.At(20, func() {})
	if calls != 2 || lastDepth != 2 {
		t.Fatalf("after 2 pushes: calls=%d depth=%d", calls, lastDepth)
	}
	e1.CancelSeq(e1.Seq())
	if calls != 3 || lastDepth != 1 {
		t.Fatalf("after cancel: calls=%d depth=%d", calls, lastDepth)
	}
	k.Run()
	if calls != 4 || lastDepth != 0 {
		t.Fatalf("after run: calls=%d depth=%d", calls, lastDepth)
	}
	k.SetQueueProbe(nil)
	k.At(30, func() {})
	if calls != 4 {
		t.Fatal("probe fired after removal")
	}
}

// overloadChurn builds the event pattern of the faultinject overload
// campaign: a multi-core processor running chain threads at their nominal
// period plus a misbehaving high-rate background service, so the kernel
// queue sees the same push/pop/cancel mix as the chaos run.
func overloadChurn(k *sim.Kernel) {
	rng := sim.NewRNG(1)
	proc := sim.NewProcessor(k, rng, "ecu", 2)
	work := proc.NewThread("chain", 100)
	svc := proc.NewThread("svc", 50)
	// Nominal 100ms-period chain work…
	proc.PeriodicLoad(work, "frame", 0, 100*sim.Millisecond,
		sim.NormalDist{Mean: 8 * sim.Millisecond, Stddev: sim.Millisecond, Min: sim.Millisecond})
	// …plus the overload: a 1ms-period service with near-saturating cost.
	proc.PeriodicLoad(svc, "busy", 0, sim.Millisecond,
		sim.UniformDist{Lo: 600 * sim.Microsecond, Hi: 900 * sim.Microsecond})
}

// BenchmarkKernelQueueChurn measures the kernel event queue under the
// overload-campaign pattern with the telemetry probe attached, reporting
// the observed maximum queue depth and heap operations per fired event.
// The ROADMAP "profile the kernel event queue" findings come from this
// benchmark.
func BenchmarkKernelQueueChurn(b *testing.B) {
	k := sim.NewKernel()
	overloadChurn(k)
	var ops uint64
	var maxDepth int
	k.SetQueueProbe(func(depth int) {
		ops++
		if depth > maxDepth {
			maxDepth = depth
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			b.Fatal("queue drained: churn should be self-perpetuating")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(maxDepth), "max-depth")
	b.ReportMetric(float64(ops)/float64(b.N), "heap-ops/event")
}

// BenchmarkKernelQueueChurnNoProbe is the identical workload without a
// probe; the delta to BenchmarkKernelQueueChurn is the instrumentation
// cost, the delta to the pre-telemetry baseline is the nil-check cost.
func BenchmarkKernelQueueChurnNoProbe(b *testing.B) {
	k := sim.NewKernel()
	overloadChurn(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			b.Fatal("queue drained: churn should be self-perpetuating")
		}
	}
}

// BenchmarkEventSchedule measures a bare schedule+fire cycle; after the
// first lap the Event is recycled and the loop runs allocation-free
// (asserted by TestScheduleAllocFree).
func BenchmarkEventSchedule(b *testing.B) {
	k := sim.NewKernel()
	var tick func()
	tick = func() { k.After(sim.Millisecond, tick) }
	k.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}
