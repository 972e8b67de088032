package spsc

import (
	"testing"
	"testing/quick"
)

// event stands in for the element types the module's rings carry.
type event struct {
	Act uint64
	TS  int64
}

func newRing(capacity int) *Ring[event] { return New[event](capacity) }

// TestRingFIFO pops events in posting order; Pop on an empty ring fails.
func TestRingFIFO(t *testing.T) {
	r := newRing(8)
	for i := uint64(0); i < 5; i++ {
		if !r.Post(event{Act: i}) {
			t.Fatalf("post %d failed", i)
		}
	}
	for i := uint64(0); i < 5; i++ {
		ev, ok := r.Pop()
		if !ok || ev.Act != i {
			t.Fatalf("pop %d = %v,%v", i, ev, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop on empty ring succeeded")
	}
}

// TestRingWrapAround posts and pops across several wrap-arounds of a small
// ring: order holds across the wrap, and the ring is empty after each round.
func TestRingWrapAround(t *testing.T) {
	r := newRing(4)
	next, want := uint64(0), uint64(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !r.Post(event{Act: next}) {
				t.Fatalf("post %d failed", next)
			}
			next++
		}
		for i := 0; i < 3; i++ {
			ev, ok := r.Pop()
			if !ok || ev.Act != want {
				t.Fatalf("pop = %v,%v, want act %d", ev, ok, want)
			}
			want++
		}
		if _, ok := r.Pop(); ok {
			t.Fatalf("round %d: pop on empty ring succeeded", round)
		}
	}
}

// TestRingFullRejects fills the ring: the next post is rejected, Len reports
// the capacity, and one Pop frees exactly one slot.
func TestRingFullRejects(t *testing.T) {
	r := newRing(4)
	for i := uint64(0); i < 4; i++ {
		if !r.Post(event{Act: i}) {
			t.Fatalf("post %d failed", i)
		}
	}
	if r.Post(event{Act: 99}) {
		t.Error("post on full ring succeeded")
	}
	if r.Len() != 4 {
		t.Errorf("len = %d, want 4", r.Len())
	}
	r.Pop()
	if !r.Post(event{Act: 4}) {
		t.Error("post after pop failed")
	}
	if r.Post(event{Act: 5}) {
		t.Error("second post after one pop succeeded")
	}
}

func TestRingCapacityValidation(t *testing.T) {
	for _, c := range []int{0, -1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d: expected panic", c)
				}
			}()
			newRing(c)
		}()
	}
	if newRing(16).Cap() != 16 {
		t.Error("cap wrong")
	}
}

// TestRingConcurrentSPSC is the Pop-side SPSC property: under a concurrent
// producer/consumer pair, the consumer sees exactly the accepted events, in
// order.
func TestRingConcurrentSPSC(t *testing.T) {
	f := func(n uint16) bool {
		count := int(n%2000) + 1
		r := newRing(64)
		var accepted []uint64 // read only after done closes
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < count; i++ {
				if r.Post(event{Act: uint64(i)}) {
					accepted = append(accepted, uint64(i))
				}
			}
		}()
		var got []uint64
		// The drain that follows seeing done collects every accepted event.
		for open := true; open; {
			select {
			case <-done:
				open = false
			default:
			}
			for ev, ok := r.Pop(); ok; ev, ok = r.Pop() {
				got = append(got, ev.Act)
			}
		}
		if len(got) != len(accepted) {
			return false
		}
		for i := range got {
			if got[i] != accepted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
