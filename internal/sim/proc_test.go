package sim

import (
	"testing"
	"time"
)

func newTestProc(cores int) (*Kernel, *Processor) {
	k := NewKernel()
	p := NewProcessor(k, NewRNG(1), "ecu0", cores)
	return k, p
}

func TestSingleItemRunsForItsCost(t *testing.T) {
	k, p := newTestProc(1)
	th := p.NewThread("a", 10)
	var done Time
	th.Enqueue("job", 100*time.Nanosecond, func() { done = k.Now() })
	k.Run()
	if done != 100 {
		t.Fatalf("done at %v, want 100", done)
	}
	if th.Completed() != 1 {
		t.Fatalf("completed = %d", th.Completed())
	}
	if th.BusyTime() != 100*time.Nanosecond {
		t.Fatalf("busy = %v", th.BusyTime())
	}
}

func TestFIFOWithinThread(t *testing.T) {
	k, p := newTestProc(1)
	th := p.NewThread("a", 10)
	var order []string
	th.Enqueue("j1", 10*time.Nanosecond, func() { order = append(order, "j1") })
	th.Enqueue("j2", 10*time.Nanosecond, func() { order = append(order, "j2") })
	th.Enqueue("j3", 10*time.Nanosecond, func() { order = append(order, "j3") })
	k.Run()
	if len(order) != 3 || order[0] != "j1" || order[1] != "j2" || order[2] != "j3" {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("finished at %v, want 30", k.Now())
	}
}

func TestHigherPriorityPreempts(t *testing.T) {
	k, p := newTestProc(1)
	lo := p.NewThread("lo", 1)
	hi := p.NewThread("hi", 10)

	var loDone, hiDone Time
	lo.Enqueue("long", 100*time.Nanosecond, func() { loDone = k.Now() })
	k.At(10, func() {
		hi.Enqueue("short", 20*time.Nanosecond, func() { hiDone = k.Now() })
	})
	k.Run()
	if hiDone != 30 {
		t.Errorf("hi done at %v, want 30 (10 arrival + 20 cost)", hiDone)
	}
	if loDone != 120 {
		t.Errorf("lo done at %v, want 120 (100 cost + 20 preempted)", loDone)
	}
}

func TestEqualPriorityDoesNotPreempt(t *testing.T) {
	k, p := newTestProc(1)
	a := p.NewThread("a", 5)
	b := p.NewThread("b", 5)
	var aDone, bDone Time
	a.Enqueue("ja", 100*time.Nanosecond, func() { aDone = k.Now() })
	k.At(10, func() {
		b.Enqueue("jb", 10*time.Nanosecond, func() { bDone = k.Now() })
	})
	k.Run()
	if aDone != 100 {
		t.Errorf("a done at %v, want 100 (not preempted by equal prio)", aDone)
	}
	if bDone != 110 {
		t.Errorf("b done at %v, want 110", bDone)
	}
}

func TestTwoCoresRunInParallel(t *testing.T) {
	k, p := newTestProc(2)
	a := p.NewThread("a", 5)
	b := p.NewThread("b", 5)
	var aDone, bDone Time
	a.Enqueue("ja", 100*time.Nanosecond, func() { aDone = k.Now() })
	b.Enqueue("jb", 100*time.Nanosecond, func() { bDone = k.Now() })
	k.Run()
	if aDone != 100 || bDone != 100 {
		t.Errorf("done at %v/%v, want 100/100 (parallel)", aDone, bDone)
	}
}

func TestPreemptedWorkResumesWithRemainingCost(t *testing.T) {
	k, p := newTestProc(1)
	lo := p.NewThread("lo", 1)
	hi := p.NewThread("hi", 10)
	var loDone, started, finished Time
	var preemptions int
	var w *WorkItem
	// The handle is valid until Fn returns, so Fn reads its bookkeeping.
	w = lo.Enqueue("long", 100*time.Nanosecond, func() {
		loDone, started, finished, preemptions = k.Now(), w.Started(), w.Finished(), w.Preemptions()
	})
	k.At(50, func() { hi.Enqueue("h", 30*time.Nanosecond, nil) })
	k.Run()
	if loDone != 130 {
		t.Errorf("lo done at %v, want 130", loDone)
	}
	if preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", preemptions)
	}
	if started != 0 || finished != 130 {
		t.Errorf("started/finished = %v/%v", started, finished)
	}
}

func TestWakeupLatencyDelaysReadiness(t *testing.T) {
	k, p := newTestProc(1)
	p.Wakeup = Constant(7 * time.Nanosecond)
	th := p.NewThread("a", 1)
	var done Time
	th.Enqueue("j", 10*time.Nanosecond, func() { done = k.Now() })
	k.Run()
	if done != 17 {
		t.Errorf("done at %v, want 17 (7 wakeup + 10 cost)", done)
	}
}

func TestCtxSwitchAddedPerDispatch(t *testing.T) {
	k, p := newTestProc(1)
	p.CtxSwitch = Constant(3 * time.Nanosecond)
	lo := p.NewThread("lo", 1)
	hi := p.NewThread("hi", 10)
	var loDone Time
	lo.Enqueue("long", 100*time.Nanosecond, func() { loDone = k.Now() })
	k.At(50, func() { hi.Enqueue("h", 10*time.Nanosecond, nil) })
	k.Run()
	// lo: dispatch at 0 (+3), preempted at 50, hi runs 50..63 (3+10),
	// lo resumes at 63 (+3 again), remaining was 100+3-50=53, +3 = 56 → 119.
	if loDone != 119 {
		t.Errorf("lo done at %v, want 119", loDone)
	}
}

func TestZeroCostItemCompletesImmediately(t *testing.T) {
	k, p := newTestProc(1)
	th := p.NewThread("a", 1)
	done := false
	th.Enqueue("nop", 0, func() { done = true })
	k.Run()
	if !done {
		t.Error("zero-cost item did not complete")
	}
	if k.Now() != 0 {
		t.Errorf("time advanced to %v for zero-cost item", k.Now())
	}
}

func TestNegativeCostPanics(t *testing.T) {
	_, p := newTestProc(1)
	th := p.NewThread("a", 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative cost")
		}
	}()
	th.Enqueue("bad", -1, nil)
}

func TestUtilizationAccounting(t *testing.T) {
	k, p := newTestProc(2)
	a := p.NewThread("a", 5)
	a.Enqueue("j", 100*time.Nanosecond, nil)
	k.Run()
	// 100ns busy on 2 cores over 100ns → 50%.
	if u := p.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %f, want 0.5", u)
	}
}

func TestPeriodicLoadGeneratesWork(t *testing.T) {
	k, p := newTestProc(1)
	th := p.NewThread("bg", 1)
	p.PeriodicLoad(th, "tick", 0, 100*time.Nanosecond, Constant(10*time.Nanosecond))
	k.RunUntil(1000)
	// Arms at 0,100,...,1000 → 11 enqueues; the one at t=1000 also completes
	// because RunUntil processes events at the horizon.
	if th.Completed() < 10 {
		t.Errorf("completed = %d, want >= 10", th.Completed())
	}
}

func TestEnqueueFromCompletionCallback(t *testing.T) {
	k, p := newTestProc(1)
	th := p.NewThread("a", 1)
	var second Time
	th.Enqueue("first", 10*time.Nanosecond, func() {
		th.Enqueue("second", 5*time.Nanosecond, func() { second = k.Now() })
	})
	k.Run()
	if second != 15 {
		t.Errorf("second done at %v, want 15", second)
	}
}

func TestManyThreadsDeterministic(t *testing.T) {
	run := func() Time {
		k := NewKernel()
		p := NewProcessor(k, NewRNG(42), "ecu", 2)
		p.CtxSwitch = UniformDist{Lo: 1 * time.Nanosecond, Hi: 5 * time.Nanosecond}
		p.Wakeup = UniformDist{Lo: 0, Hi: 3 * time.Nanosecond}
		var last Time
		for i := 0; i < 8; i++ {
			th := p.NewThread("t", i%4)
			for j := 0; j < 20; j++ {
				th.Enqueue("j", Duration(10+i+j)*time.Nanosecond, func() { last = k.Now() })
			}
		}
		k.Run()
		return last
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestPinnedThreadsShareOneCore(t *testing.T) {
	k, p := newTestProc(2)
	a := p.NewThread("a", 5)
	b := p.NewThread("b", 5)
	a.PinTo(0)
	b.PinTo(0)
	var aDone, bDone Time
	a.Enqueue("ja", 100*time.Nanosecond, func() { aDone = k.Now() })
	b.Enqueue("jb", 100*time.Nanosecond, func() { bDone = k.Now() })
	k.Run()
	// Serialized on core 0 despite the free second core.
	if aDone != 100 || bDone != 200 {
		t.Errorf("done at %v/%v, want 100/200 (partitioned)", aDone, bDone)
	}
}

func TestPinnedHigherPrioPreemptsOnItsCore(t *testing.T) {
	k, p := newTestProc(1)
	lo := p.NewThread("lo", 1)
	hi := p.NewThread("hi", 10)
	lo.PinTo(0)
	hi.PinTo(0)
	var loDone, hiDone Time
	lo.Enqueue("l", 100*time.Nanosecond, func() { loDone = k.Now() })
	k.At(10, func() { hi.Enqueue("h", 20*time.Nanosecond, func() { hiDone = k.Now() }) })
	k.Run()
	if hiDone != 30 || loDone != 120 {
		t.Errorf("done at hi=%v lo=%v, want 30/120", hiDone, loDone)
	}
}

func TestUnpinnedUsesRemainingCores(t *testing.T) {
	k, p := newTestProc(2)
	pinned := p.NewThread("pinned", 1)
	pinned.PinTo(0)
	free := p.NewThread("free", 1)
	var pDone, fDone Time
	pinned.Enqueue("p", 100*time.Nanosecond, func() { pDone = k.Now() })
	free.Enqueue("f", 100*time.Nanosecond, func() { fDone = k.Now() })
	k.Run()
	if pDone != 100 || fDone != 100 {
		t.Errorf("done at %v/%v, want parallel 100/100", pDone, fDone)
	}
}

func TestPinValidation(t *testing.T) {
	_, p := newTestProc(2)
	th := p.NewThread("t", 1)
	th.PinTo(-5)
	if th.Pinned() != -1 {
		t.Error("negative pin should mean unpinned")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range core")
		}
	}()
	th.PinTo(2)
}

// Property: total busy time equals the sum of all item costs plus dispatch
// overheads; with zero overheads it is exactly the sum of costs.
func TestBusyTimeConservation(t *testing.T) {
	k, p := newTestProc(3)
	var total Duration
	for i := 0; i < 5; i++ {
		th := p.NewThread("t", i)
		for j := 0; j < 10; j++ {
			c := Duration(7*(i+1)+j) * time.Nanosecond
			total += c
			th.Enqueue("j", c, nil)
		}
	}
	k.Run()
	var busy Duration
	for _, th := range p.Threads() {
		busy += th.BusyTime()
	}
	if busy != total {
		t.Errorf("busy = %v, want %v", busy, total)
	}
}

func TestEnqueueDirectSkipsWakeup(t *testing.T) {
	k, p := newTestProc(1)
	p.Wakeup = Constant(50 * time.Nanosecond) // would delay a normal Enqueue
	th := p.NewThread("a", 1)
	var done Time
	k.At(10, func() {
		th.EnqueueDirect("d", 5*time.Nanosecond, func() { done = k.Now() })
	})
	k.Run()
	if done != 15 {
		t.Errorf("done at %v, want 15 (no wakeup latency)", done)
	}
}

func TestEnqueueDirectFIFOWithQueue(t *testing.T) {
	k, p := newTestProc(1)
	th := p.NewThread("a", 1)
	var order []string
	k.At(0, func() {
		th.EnqueueDirect("first", 10*time.Nanosecond, func() { order = append(order, "first") })
		th.EnqueueDirect("second", 10*time.Nanosecond, func() { order = append(order, "second") })
	})
	k.Run()
	if len(order) != 2 || order[0] != "first" {
		t.Errorf("order = %v", order)
	}
}

func TestEnqueueDirectNegativeCostPanics(t *testing.T) {
	_, p := newTestProc(1)
	th := p.NewThread("a", 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	th.EnqueueDirect("bad", -1, nil)
}

func TestThreadIntrospection(t *testing.T) {
	k, p := newTestProc(1)
	if p.Kernel() != k {
		t.Error("Kernel() wrong")
	}
	if p.RNG() == nil {
		t.Error("RNG() nil")
	}
	th := p.NewThread("a", 1)
	w := th.Enqueue("j", 10*time.Nanosecond, nil)
	if w.Enqueued() != 0 {
		t.Errorf("Enqueued() = %v", w.Enqueued())
	}
	if th.QueueLen() != 0 { // not yet ready (wakeup pending as event)
		t.Errorf("queue len = %d before wakeup", th.QueueLen())
	}
	k.Run()
	if th.Busy() {
		t.Error("thread busy after completion")
	}
}
