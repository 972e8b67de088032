package sim

import (
	"testing"
	"time"
)

// overloadChurnInternal mirrors the exported benchmark workload
// (queue_bench_test.go) from inside the package, so the alloc gates can
// inspect freelist internals while driving the same push/pop/cancel mix.
func overloadChurnInternal(k *Kernel) (work, svc *Thread) {
	rng := NewRNG(1)
	proc := NewProcessor(k, rng, "ecu", 2)
	work = proc.NewThread("chain", 100)
	svc = proc.NewThread("svc", 50)
	proc.PeriodicLoad(work, "frame", 0, 100*Millisecond,
		NormalDist{Mean: 8 * Millisecond, Stddev: Millisecond, Min: Millisecond})
	proc.PeriodicLoad(svc, "busy", 0, Millisecond,
		UniformDist{Lo: 600 * Microsecond, Hi: 900 * Microsecond})
	return work, svc
}

// TestQueueChurnAllocFree is the CI allocation gate on the kernel hot path:
// once the per-thread work-item freelists and the event freelist are primed,
// the overload-churn workload (enqueue, wakeup, dispatch, preemption,
// completion) runs entirely without heap allocation. This pins the ISSUE 8
// win — BenchmarkKernelQueueChurn at 0 allocs/op — as a hard test.
func TestQueueChurnAllocFree(t *testing.T) {
	k := NewKernel()
	overloadChurnInternal(k)
	// Warm up: let every freelist and scratch buffer reach steady state.
	for i := 0; i < 20000; i++ {
		if !k.Step() {
			t.Fatal("queue drained during warm-up")
		}
	}
	allocs := testing.AllocsPerRun(5000, func() {
		if !k.Step() {
			t.Fatal("queue drained: churn should be self-perpetuating")
		}
	})
	if allocs != 0 {
		t.Fatalf("churn kernel step allocates %.2f/op, want 0", allocs)
	}
}

// TestEnqueueAllocFree gates the bare enqueue→run cycle: with a primed
// freelist, Enqueue (wakeup event + work item) and EnqueueDirect both reuse
// recycled state end to end.
func TestEnqueueAllocFree(t *testing.T) {
	k := NewKernel()
	p := NewProcessor(k, NewRNG(7), "ecu", 1)
	th := p.NewThread("a", 1)
	for i := 0; i < 16; i++ { // prime item and event freelists
		th.Enqueue("warm", 10*time.Nanosecond, nil)
		th.EnqueueDirect("warm", 10*time.Nanosecond, nil)
		k.Run()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		th.Enqueue("job", 10*time.Nanosecond, nil)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("Enqueue cycle allocates %.2f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		th.EnqueueDirect("job", 10*time.Nanosecond, nil)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("EnqueueDirect cycle allocates %.2f/op, want 0", allocs)
	}
}

// TestWorkItemRecycledAfterCompletion pins the freelist lifecycle: a
// completed item is parked on its thread's freelist with the stale Fn and
// label cleared, and the next enqueue pops exactly that item.
func TestWorkItemRecycledAfterCompletion(t *testing.T) {
	k := NewKernel()
	p := NewProcessor(k, NewRNG(7), "ecu", 1)
	th := p.NewThread("a", 1)
	ran := false
	w1 := th.Enqueue("first", 10*time.Nanosecond, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("item never ran")
	}
	if th.FreeItems() != 1 {
		t.Fatalf("freelist holds %d items after completion, want 1", th.FreeItems())
	}
	if !w1.inFree || w1.Fn != nil || w1.Label != "" {
		t.Fatalf("parked item leaked state: inFree=%v Fn=%p label=%q", w1.inFree, w1.Fn, w1.Label)
	}
	w2 := th.Enqueue("second", 10*time.Nanosecond, nil)
	if w2 != w1 {
		t.Fatalf("enqueue did not pop the recycled item (got %p, freelist had %p)", w2, w1)
	}
	if w2.Label != "second" || w2.inFree || w2.next != nil {
		t.Fatalf("recycled item not reset: label=%q inFree=%v next=%p", w2.Label, w2.inFree, w2.next)
	}
	if th.FreeItems() != 0 {
		t.Fatalf("freelist holds %d items after reuse, want 0", th.FreeItems())
	}
}

// TestWorkItemReuseUnderPreemption runs a low-priority item through a
// preemption before completion and verifies it still recycles cleanly —
// the preempt/cancel path must not leak items or corrupt the freelist.
func TestWorkItemReuseUnderPreemption(t *testing.T) {
	k := NewKernel()
	p := NewProcessor(k, NewRNG(7), "ecu", 1)
	lo := p.NewThread("lo", 1)
	hi := p.NewThread("hi", 10)
	w := lo.Enqueue("long", 100*time.Nanosecond, nil)
	k.At(50, func() { hi.Enqueue("h", 30*time.Nanosecond, nil) })
	preempted := w.Preemptions() // handle read before completion is fine
	k.Run()
	_ = preempted
	if lo.FreeItems() != 1 || hi.FreeItems() != 1 {
		t.Fatalf("freelists hold %d/%d items, want 1/1", lo.FreeItems(), hi.FreeItems())
	}
	// Both threads must reuse their own recycled items.
	w2 := lo.Enqueue("again", 10*time.Nanosecond, nil)
	if w2 != w {
		t.Fatalf("preempted item was not recycled (got %p want %p)", w2, w)
	}
	k.Run()
}

// TestFreelistNeverLeaksStaleState is the property test over the churn
// workload: at every step, every item parked on any freelist has its Fn and
// label cleared and its links consistent — a recycled slot can never run or
// report a previous item's work. The same walk under -race (CI runs the
// package race-enabled) doubles as the freelist churn race check.
func TestFreelistNeverLeaksStaleState(t *testing.T) {
	k := NewKernel()
	work, svc := overloadChurnInternal(k)
	threads := []*Thread{work, svc}
	for i := 0; i < 50000; i++ {
		if !k.Step() {
			t.Fatal("queue drained")
		}
		if i%97 != 0 {
			continue
		}
		for _, th := range threads {
			n := 0
			for w := th.free; w != nil; w = w.next {
				n++
				if !w.inFree {
					t.Fatalf("step %d: freelist item %p not marked inFree", i, w)
				}
				if w.Fn != nil || w.Label != "" {
					t.Fatalf("step %d: freelist item %p leaks Fn=%p label=%q", i, w, w.Fn, w.Label)
				}
				if w.t != th {
					t.Fatalf("step %d: item %p migrated freelists", i, w)
				}
				if n > th.freeLen {
					t.Fatalf("step %d: freelist longer than freeLen %d (cycle?)", i, th.freeLen)
				}
			}
			if n != th.freeLen {
				t.Fatalf("step %d: freeLen=%d but walked %d items", i, th.freeLen, n)
			}
		}
	}
}

// TestReleaseBeforeFireContract exercises the recycled-event interplay: the
// wakeup event of an enqueued item is released before firing, and a
// cancelled completion (preemption) must return its event without touching
// the not-yet-fired wakeup of another item.
func TestReleaseBeforeFireContract(t *testing.T) {
	k := NewKernel()
	p := NewProcessor(k, NewRNG(7), "ecu", 1)
	p.Wakeup = Constant(5 * time.Nanosecond)
	lo := p.NewThread("lo", 1)
	hi := p.NewThread("hi", 10)
	var order []string
	lo.Enqueue("a", 40*time.Nanosecond, func() { order = append(order, "a") })
	k.At(10, func() {
		hi.Enqueue("b", 10*time.Nanosecond, func() { order = append(order, "b") })
	})
	k.At(11, func() {
		hi.Enqueue("c", 10*time.Nanosecond, func() { order = append(order, "c") })
	})
	k.Run()
	if len(order) != 3 || order[0] != "b" || order[1] != "c" || order[2] != "a" {
		t.Fatalf("completion order %v, want [b c a]", order)
	}
	// hi held two live items at once (c was constructed before b completed),
	// so its freelist ends with both parked.
	if lo.FreeItems() != 1 || hi.FreeItems() != 2 {
		t.Fatalf("freelists %d/%d, want 1/2", lo.FreeItems(), hi.FreeItems())
	}
}

// TestKernelHeapAllocFree gates the event heap itself: with the freelist
// and the queue's backing array primed, scheduling events, moving them (a
// CancelSeq plus a fresh schedule), canceling them with CancelSeq as a timer
// handle does, and popping the rest allocates nothing.
func TestKernelHeapAllocFree(t *testing.T) {
	k := NewKernel()
	nop := func() {}
	var evs [64]*Event
	cycle := func() {
		for i := range evs {
			evs[i] = k.AtPriority(k.Now().Add(Duration(i*7%64)), i%3, nop)
		}
		for i := 0; i < len(evs); i += 4 {
			evs[i].CancelSeq(evs[i].Seq())
			evs[i] = k.AtPriority(k.Now().Add(Duration(100-i)), i%3, nop)
		}
		for i := 1; i < len(evs); i += 8 {
			evs[i].CancelSeq(evs[i].Seq())
			evs[i+2].CancelSeq(evs[i+2].Seq())
		}
		evs = [64]*Event{}
		for k.Step() {
		}
	}
	cycle() // prime the freelist and the queue's backing array
	allocs := testing.AllocsPerRun(200, cycle)
	if allocs != 0 {
		t.Fatalf("kernel push/pop/cancel/reschedule cycle allocates %.2f/op, want 0", allocs)
	}
}
