package runtime

import (
	"testing"
	"time"
)

// TestSwapBarrierKeepsInflightDeadline pins the swap-barrier contract: a
// shrink applies only to activations drained after the swap — in-flight
// activations finish under the deadline they were armed with.
func TestSwapBarrierKeepsInflightDeadline(t *testing.T) {
	c := NewCore()
	var oks, expired []uint64
	s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, SegmentHooks{
		OK:     func(start Event, _ Time) { oks = append(oks, start.Act) },
		Expire: func(start Event, _, _ Time) { expired = append(expired, start.Act) },
	})
	s.StartRing().Post(Event{Act: 1, TS: 0})
	c.Scan(0) // act 1 armed at deadline 10ms
	c.SetDeadline(s, 2*time.Millisecond)
	s.StartRing().Post(Event{Act: 2, TS: 0})
	c.Scan(0) // act 2 armed at deadline 2ms
	// At 3ms only act 2's (post-swap) deadline has passed; act 1 is still
	// in flight under its pre-swap 10ms budget.
	c.Scan(Time(3 * time.Millisecond))
	s.EndRing().Post(Event{Act: 1, TS: Time(5 * time.Millisecond)})
	c.Scan(Time(5 * time.Millisecond))
	if len(oks) != 1 || oks[0] != 1 {
		t.Fatalf("ok set %v, want [1] (in-flight act must keep its pre-swap deadline)", oks)
	}
	if len(expired) != 1 || expired[0] != 2 {
		t.Fatalf("expired set %v, want [2] (post-swap act must use the new deadline)", expired)
	}
}

// TestSwapShrinkKeepsArmedTimeout pins the barrier at the timer layer: a
// shrink neither re-runs the Arm hook for an in-flight activation nor moves
// its armed deadline, so the walltime loop keeps sleeping until the
// pre-swap deadline and the exception fires there.
func TestSwapShrinkKeepsArmedTimeout(t *testing.T) {
	c := NewCore()
	var armed, expired []Time
	s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, SegmentHooks{
		Arm:    func(_ Event, deadline, _ Time) Timer { armed = append(armed, deadline); return Timer{} },
		Expire: func(_ Event, deadline, _ Time) { expired = append(expired, deadline) },
	})
	s.StartRing().Post(Event{Act: 1, TS: 0})
	c.Scan(0)
	c.SetDeadline(s, 2*time.Millisecond)
	if len(armed) != 1 || armed[0] != Time(10*time.Millisecond) {
		t.Fatalf("arm trace %v, want one arm at 10ms: a shrink must not re-arm", armed)
	}
	if at, ok := c.NextDeadline(); !ok || at != Time(10*time.Millisecond) {
		t.Fatalf("NextDeadline %v/%v, want the armed 10ms after a shrink", at, ok)
	}
	c.Scan(Time(3 * time.Millisecond))
	if len(expired) != 0 {
		t.Fatalf("expire trace %v, want none before the armed 10ms deadline", expired)
	}
	c.Scan(Time(10 * time.Millisecond))
	if len(expired) != 1 || expired[0] != Time(10*time.Millisecond) {
		t.Fatalf("expire trace %v, want one exception at the armed 10ms deadline", expired)
	}
}

// TestSwapRetimeNeverRelaxesInflight pins that re-timing a segment never
// grants an in-flight activation more time than it started with: growing
// the budget leaves armed deadlines untouched, and only activations drained
// after the swap run under the grown deadline.
func TestSwapRetimeNeverRelaxesInflight(t *testing.T) {
	c := NewCore()
	var expired []uint64
	s := c.AddSegment("s", 2*time.Millisecond, &SliceRing{}, &SliceRing{}, SegmentHooks{
		Expire: func(start Event, _, _ Time) { expired = append(expired, start.Act) },
	})
	s.StartRing().Post(Event{Act: 1, TS: 0})
	c.Scan(0)
	c.SetDeadline(s, 20*time.Millisecond)
	if at, ok := c.NextDeadline(); !ok || at != Time(2*time.Millisecond) {
		t.Fatalf("NextDeadline %v/%v, want the original 2ms deadline", at, ok)
	}
	c.Scan(Time(3 * time.Millisecond))
	if len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("expired %v, want [1]: growth must not relax the armed deadline", expired)
	}
	// A fresh activation drains under the grown deadline.
	s.StartRing().Post(Event{Act: 2, TS: Time(3 * time.Millisecond)})
	s.EndRing().Post(Event{Act: 2, TS: Time(13 * time.Millisecond)})
	c.Scan(Time(13 * time.Millisecond))
	if len(expired) != 1 {
		t.Fatalf("expired %v, want act 2 OK under the grown 20ms budget", expired)
	}
}

// TestSwapWithPendingTimeoutsBattery churns a segment through repeated
// shrink/grow swaps with many pending timeouts in flight and checks the
// verdict bookkeeping stays exact: every activation resolves exactly once
// and the heap prunes back down.
func TestSwapWithPendingTimeoutsBattery(t *testing.T) {
	c := NewCore()
	resolved := map[uint64]int{}
	s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, SegmentHooks{
		OK:     func(start Event, _ Time) { resolved[start.Act]++ },
		Expire: func(start Event, _, _ Time) { resolved[start.Act]++ },
	})
	now := Time(0)
	act := uint64(0)
	deadlines := []Duration{10 * time.Millisecond, 2 * time.Millisecond, 25 * time.Millisecond, 5 * time.Millisecond}
	for round := 0; round < 200; round++ {
		for i := 0; i < 64; i++ {
			act++
			s.StartRing().Post(Event{Act: act, TS: now})
		}
		c.Scan(now) // 64 pending
		c.SetDeadline(s, deadlines[round%len(deadlines)])
		// Half the batch completes 3ms in, the rest strands.
		for a := act - 63; a <= act; a += 2 {
			s.EndRing().Post(Event{Act: a, TS: now.Add(3 * time.Millisecond)})
		}
		now = now.Add(3 * time.Millisecond)
		c.Scan(now)
		now = now.Add(30 * time.Millisecond) // past every deadline variant
		c.Scan(now)
	}
	if c.PendingTimeouts() != 0 {
		t.Fatalf("%d pending timeouts leaked", c.PendingTimeouts())
	}
	if int(act) != len(resolved) {
		t.Fatalf("%d activations resolved, want %d", len(resolved), act)
	}
	for a, n := range resolved {
		if n != 1 {
			t.Fatalf("act %d resolved %d times", a, n)
		}
	}
	if n := len(c.deadline.entries); n > 64 {
		t.Fatalf("deadline heap holds %d entries after churn", n)
	}
}

// TestSwapAllocFree extends the allocation gate to the hot-swap path: a
// cycle that arms 64 timeouts, shrinks the deadline, grows it back, and
// resolves everything must not allocate once warm.
func TestSwapAllocFree(t *testing.T) {
	c := NewCore()
	s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, SegmentHooks{})
	now := Time(0)
	act := uint64(0)
	cycle := func() {
		for i := 0; i < 64; i++ {
			act++
			s.StartRing().Post(Event{Act: act, TS: now})
		}
		c.Scan(now)
		c.SetDeadline(s, 2*time.Millisecond)
		c.SetDeadline(s, 10*time.Millisecond)
		for a := act - 63; a <= act; a++ {
			s.EndRing().Post(Event{Act: a, TS: now.Add(time.Millisecond)})
		}
		now = now.Add(time.Millisecond)
		c.Scan(now)
		now = now.Add(30 * time.Millisecond)
		c.Scan(now)
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs != 0 {
		t.Fatalf("swap cycle allocates %.2f/op, want 0", allocs)
	}
	if c.PendingTimeouts() != 0 {
		t.Fatalf("leftover pending timeouts: %d", c.PendingTimeouts())
	}
}
