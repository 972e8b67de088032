package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Errorf("Now() = %v, want 30", k.Now())
	}
}

func TestKernelTieBreakBySeqThenPriority(t *testing.T) {
	k := NewKernel()
	var got []string
	k.At(10, func() { got = append(got, "first") })
	k.At(10, func() { got = append(got, "second") })
	k.AtPriority(10, 5, func() { got = append(got, "hiprio") })
	k.Run()
	if got[0] != "hiprio" || got[1] != "first" || got[2] != "second" {
		t.Fatalf("got order %v", got)
	}
}

func TestKernelAfterUsesCurrentTime(t *testing.T) {
	k := NewKernel()
	var fired Time
	k.At(100, func() {
		k.After(50, func() { fired = k.Now() })
	})
	k.Run()
	if fired != 150 {
		t.Errorf("fired at %v, want 150", fired)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(10, func() { fired = true })
	seq := e.Seq()
	e.CancelSeq(seq)
	if k.Pending() != 0 {
		t.Errorf("Pending() = %d after cancel, want 0", k.Pending())
	}
	k.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// Double cancel is a no-op.
	e.CancelSeq(seq)
}

func TestKernelCancelFromWithinEarlierEvent(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(20, func() { fired = true })
	seq := e.Seq()
	k.At(10, func() { e.CancelSeq(seq) })
	k.Run()
	if fired {
		t.Error("event fired despite cancel at t=10")
	}
}

func TestKernelRunUntilLeavesLaterEventsPending(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.At(10, func() { ran++ })
	k.At(100, func() { ran++ })
	k.RunUntil(50)
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if k.Now() != 50 {
		t.Errorf("Now() = %v, want 50 after RunUntil", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", k.Pending())
	}
	k.Run()
	if ran != 2 {
		t.Errorf("ran = %d after full Run, want 2", ran)
	}
}

func TestKernelRunForAdvancesRelative(t *testing.T) {
	k := NewKernel()
	k.RunFor(10 * time.Nanosecond)
	if k.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", k.Now())
	}
	k.RunFor(5 * time.Nanosecond)
	if k.Now() != 15 {
		t.Fatalf("Now() = %v, want 15", k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.At(1, func() { ran++; k.Stop() })
	k.At(2, func() { ran++ })
	k.Run()
	if ran != 1 {
		t.Errorf("ran = %d, want 1 (stopped after first)", ran)
	}
}

func TestKernelPanicsOnPastEvent(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestKernelSchedulingInsideEventSameTime(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(10, func() {
		order = append(order, "a")
		k.At(10, func() { order = append(order, "b") })
	})
	k.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
}

// Property: for any set of non-negative offsets, events fire in sorted order
// and the executed count matches.
func TestKernelOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, o := range offsets {
			k.At(Time(o), func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return k.Executed() == uint64(len(offsets))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	a := Time(1000)
	if a.Add(500*Nanosecond) != 1500 {
		t.Error("Add failed")
	}
	if a.Sub(Time(400)) != 600 {
		t.Error("Sub failed")
	}
	if !a.Before(1001) || a.Before(1000) {
		t.Error("Before failed")
	}
	if !a.After(999) || a.After(1000) {
		t.Error("After failed")
	}
	if Time(1500).String() != "t+1.5µs" {
		t.Errorf("String() = %q", Time(1500).String())
	}
}

func TestEventRecycled(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(10, func() { fired++ })
	if k.FreeEvents() != 0 {
		t.Fatalf("freelist %d before firing", k.FreeEvents())
	}
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	if k.FreeEvents() != 1 {
		t.Fatalf("freelist %d after firing, want 1", k.FreeEvents())
	}
	// The next schedule reuses the slot instead of growing the list.
	k.At(20, func() { fired++ })
	if k.FreeEvents() != 0 {
		t.Fatalf("freelist %d after reuse, want 0", k.FreeEvents())
	}
	k.Run()
	if fired != 2 || k.FreeEvents() != 1 {
		t.Fatalf("fired = %d, freelist = %d", fired, k.FreeEvents())
	}
}

func TestEventCancelRecycles(t *testing.T) {
	k := NewKernel()
	e := k.At(10, func() { t.Fatal("canceled event fired") })
	e.CancelSeq(e.Seq())
	if k.FreeEvents() != 1 {
		t.Fatalf("freelist %d after cancel, want 1", k.FreeEvents())
	}
	// Double cancel must not double-release.
	e.CancelSeq(e.Seq())
	if k.FreeEvents() != 1 {
		t.Fatalf("freelist %d after double cancel, want 1", k.FreeEvents())
	}
	k.Run()
}

// TestCancelSeqStaleHandle pins the handle contract of recycled events: a
// handle (the event with its Seq) kept after its schedule fired cancels
// nothing — not while the event is parked on the freelist, and not once a
// thread's completion reuses it, however often it is called.
func TestCancelSeqStaleHandle(t *testing.T) {
	k := NewKernel()
	th := NewProcessor(k, NewRNG(7), "ecu", 1).NewThread("a", 1)
	e := k.At(10, func() {})
	seq := e.Seq()
	k.Run()
	e.CancelSeq(seq)
	if k.FreeEvents() != 1 {
		t.Fatalf("cancel of a parked event: freelist %d, want 1", k.FreeEvents())
	}
	done := false
	th.EnqueueDirect("job", 5, func() { done = true })
	if k.Pending() != 1 || k.queue[0] != e || e.Seq() == seq {
		t.Fatal("the thread's completion did not reuse the fired event")
	}
	e.CancelSeq(seq)
	e.CancelSeq(seq)
	if k.Pending() != 1 || k.queue[0] != e {
		t.Fatal("a stale handle canceled the completion that reuses its event")
	}
	k.Run()
	if !done {
		t.Fatal("the completion never ran")
	}

	// A live handle cancels its schedule once; repeating it does nothing.
	e = k.At(k.Now()+10, func() { t.Error("canceled event fired") })
	seq = e.Seq()
	e.CancelSeq(seq)
	e.CancelSeq(seq)
	if k.Pending() != 0 || k.FreeEvents() != 1 {
		t.Fatalf("after cancel: pending %d, freelist %d; want 0, 1", k.Pending(), k.FreeEvents())
	}
	k.Run()
}

// TestScheduleAllocFree: once the freelist is primed, a self-rescheduling
// event runs its schedule+fire cycle without any heap allocation, through
// each of At, After and AtPriority.
func TestScheduleAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule func(k *Kernel, fn EventFunc)
	}{
		{"At", func(k *Kernel, fn EventFunc) { k.At(k.Now().Add(Millisecond), fn) }},
		{"After", func(k *Kernel, fn EventFunc) { k.After(Millisecond, fn) }},
		{"AtPriority", func(k *Kernel, fn EventFunc) { k.AtPriority(k.Now().Add(Millisecond), 3, fn) }},
	} {
		k := NewKernel()
		var tick func()
		tick = func() { tc.schedule(k, tick) }
		tc.schedule(k, tick)
		k.Step() // prime the freelist
		allocs := testing.AllocsPerRun(1000, func() {
			if !k.Step() {
				t.Fatal("queue drained")
			}
		})
		if allocs != 0 {
			t.Errorf("%s schedule+fire cycle allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}

// TestKernelHeapOrderUnderChurn drives the hand-rolled event heap through a
// seeded mix of schedules (colliding times and priorities), cancels,
// reschedules (a cancel plus a fresh schedule at the same priority) and
// pops, and checks every pop against a brute-force scan for the (time,
// priority, sequence) minimum. The order is strict and total, so exactly one
// pop sequence is correct whatever the heap layout.
func TestKernelHeapOrderUnderChurn(t *testing.T) {
	rng := NewRNG(3)
	k := NewKernel()
	live := map[*Event]bool{}
	var fired *Event
	schedule := func(at Time, priority int) {
		var e *Event
		e = k.AtPriority(at, priority, func() { fired = e })
		live[e] = true
	}
	cancel := func() *Event { // a pending event, chosen by position in the queue
		e := k.queue[rng.Intn(len(k.queue))]
		e.CancelSeq(e.Seq())
		delete(live, e)
		return e
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(k.queue) == 0:
			schedule(k.Now().Add(Duration(rng.Intn(50))), rng.Intn(3))
		case op < 6:
			cancel()
		case op < 7:
			priority := int(cancel().priority)
			schedule(k.Now().Add(Duration(rng.Intn(50))), priority)
		default:
			var want *Event
			for e := range live {
				if want == nil || e.at < want.at ||
					e.at == want.at && (e.priority > want.priority ||
						e.priority == want.priority && e.seq < want.seq) {
					want = e
				}
			}
			k.Step()
			if fired != want {
				t.Fatalf("step %d: fired %+v, want %+v", step, *fired, *want)
			}
			delete(live, want)
		}
		for i, e := range k.queue {
			if int(e.index) != i {
				t.Fatalf("step %d: event at slot %d records index %d", step, i, e.index)
			}
		}
		if len(k.queue) != len(live) {
			t.Fatalf("step %d: queue holds %d events, %d live", step, len(k.queue), len(live))
		}
	}
}
