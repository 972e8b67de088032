package runtime

import (
	"testing"
	"time"
)

// TestScanAllocFree is the CI allocation gate on the ring-drain path: once
// the pendingTimeout freelist, the batch scratch and the deadline heap have
// reached steady state, a full post→drain→arm→resolve→expire cycle runs
// without heap allocation.
func TestScanAllocFree(t *testing.T) {
	c := NewCore()
	a := c.AddSegment("a", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, SegmentHooks{})
	b := c.AddSegment("b", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, SegmentHooks{})
	act := uint64(0)
	now := Time(0)
	cycle := func() {
		// Four activations per segment per cycle: three complete in time,
		// one expires — exercising arm, OK and Expire paths.
		for i := 0; i < 4; i++ {
			act++
			a.StartRing().Post(Event{Act: act, TS: now})
			b.StartRing().Post(Event{Act: act, TS: now})
			if i != 3 {
				a.EndRing().Post(Event{Act: act, TS: now.Add(time.Millisecond)})
				b.EndRing().Post(Event{Act: act, TS: now.Add(time.Millisecond)})
			}
		}
		now = now.Add(2 * time.Millisecond)
		c.Scan(now)
		now = now.Add(20 * time.Millisecond) // past DMon: strays expire
		c.Scan(now)
	}
	for i := 0; i < 200; i++ { // warm freelists, scratch and heap capacity
		cycle()
	}
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs != 0 {
		t.Fatalf("scan cycle allocates %.2f/op, want 0", allocs)
	}
	if c.PendingTimeouts() != 0 {
		t.Fatalf("leftover pending timeouts: %d", c.PendingTimeouts())
	}
}

// TestScanHeapStaysBounded pins the lazy-heap pruning: resolved and fired
// activations must not accumulate in the deadline heap across scans.
func TestScanHeapStaysBounded(t *testing.T) {
	c := NewCore()
	s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, SegmentHooks{})
	now := Time(0)
	for i := 1; i <= 10000; i++ {
		s.StartRing().Post(Event{Act: uint64(i), TS: now})
		s.EndRing().Post(Event{Act: uint64(i), TS: now.Add(time.Millisecond)})
		now = now.Add(2 * time.Millisecond)
		c.Scan(now)
	}
	if n := len(c.deadline.entries); n > 1 {
		t.Fatalf("deadline heap holds %d stale entries after 10k resolved activations", n)
	}
}

// TestSliceRingPopBatchEquivalence pins the PopBatch contract on the
// SliceRing: PopBatch returns exactly what repeated Pop would, in order,
// across partial batches and interleaved posts.
func TestSliceRingPopBatchEquivalence(t *testing.T) {
	ref, batched := &SliceRing{}, &SliceRing{}
	post := func(n int, base uint64) {
		for i := 0; i < n; i++ {
			ev := Event{Act: base + uint64(i), TS: Time(i)}
			ref.Post(ev)
			batched.Post(ev)
		}
	}
	buf := make([]Event, 7) // deliberately not a divisor of the post counts
	post(20, 0)
	for {
		n := batched.PopBatch(buf)
		if n == 0 {
			break
		}
		for _, got := range buf[:n] {
			want, ok := ref.Pop()
			if !ok || got != want {
				t.Fatalf("PopBatch event %+v, Pop %+v (ok=%v)", got, want, ok)
			}
		}
		if batched.Len() > 13 {
			post(5, 1000) // interleave posts mid-drain
		}
	}
	if _, ok := ref.Pop(); ok {
		t.Fatal("PopBatch drained fewer events than Pop")
	}
}

// TestScanBatchedDrainPreservesOrder posts far more start events than one
// drain batch holds and verifies the Arm hook observes them in posting
// order — batching must be invisible to the verdict sequence.
func TestScanBatchedDrainPreservesOrder(t *testing.T) {
	c := NewCore()
	var armed []uint64
	s := c.AddSegment("s", time.Millisecond, &SliceRing{}, &SliceRing{}, SegmentHooks{
		Arm: func(start Event, _, _ Time) Timer {
			armed = append(armed, start.Act)
			return Timer{}
		},
	})
	const n = 3*drainBatch + 17
	for i := 0; i < n; i++ {
		s.StartRing().Post(Event{Act: uint64(i), TS: 0})
	}
	c.Scan(0)
	if len(armed) != n {
		t.Fatalf("armed %d activations, want %d", len(armed), n)
	}
	for i, act := range armed {
		if act != uint64(i) {
			t.Fatalf("arm order broken at %d: got act %d", i, act)
		}
	}
}
