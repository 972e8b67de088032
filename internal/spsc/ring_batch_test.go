package spsc

import (
	"runtime"
	"testing"
)

// TestRingPopBatchEquivalence pins the PopBatch contract: it returns
// exactly what repeated Pop would — same events,
// same order — across partial batches, wrap-around and refills.
func TestRingPopBatchEquivalence(t *testing.T) {
	ref, batched := newRing(16), newRing(16)
	next := uint64(0)
	post := func(n int) {
		for i := 0; i < n; i++ {
			ev := event{Act: next, TS: int64(next)}
			if !ref.Post(ev) || !batched.Post(ev) {
				t.Fatalf("ring full at event %d", next)
			}
			next++
		}
	}
	buf := make([]event, 5) // not a divisor of the ring capacity: exercises wrap
	for round := 0; round < 50; round++ {
		post(11)
		for {
			n := batched.PopBatch(buf)
			if n == 0 {
				break
			}
			for _, got := range buf[:n] {
				want, ok := ref.Pop()
				if !ok || got != want {
					t.Fatalf("round %d: PopBatch %+v, Pop %+v (ok=%v)", round, got, want, ok)
				}
			}
		}
		if _, ok := ref.Pop(); ok {
			t.Fatalf("round %d: PopBatch drained fewer events than Pop", round)
		}
	}
}

// TestRingPopBatchEmptyAndFull checks the edges: an empty ring returns 0,
// and a batch larger than the buffered count returns exactly the buffered
// events while freeing every slot for the producer.
func TestRingPopBatchEmptyAndFull(t *testing.T) {
	r := newRing(8)
	buf := make([]event, 16)
	if n := r.PopBatch(buf); n != 0 {
		t.Fatalf("empty ring returned %d events", n)
	}
	for i := 0; i < 8; i++ {
		if !r.Post(event{Act: uint64(i)}) {
			t.Fatalf("post %d failed on empty ring", i)
		}
	}
	if r.Post(event{Act: 99}) {
		t.Fatal("post succeeded on a full ring")
	}
	if n := r.PopBatch(buf); n != 8 {
		t.Fatalf("PopBatch returned %d of 8", n)
	}
	for i := 0; i < 8; i++ {
		if buf[i].Act != uint64(i) {
			t.Fatalf("slot %d holds act %d", i, buf[i].Act)
		}
		// Every slot must be free again for the producer.
		if !r.Post(event{Act: uint64(100 + i)}) {
			t.Fatalf("post %d failed after full batch drain", i)
		}
	}
}

// TestRingPopBatchConcurrent churns a producer goroutine against a
// batch-draining consumer; under -race this is the SPSC memory-ordering
// check for the batched consumer path.
func TestRingPopBatchConcurrent(t *testing.T) {
	const total = 20000
	r := newRing(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; {
			if r.Post(event{Act: uint64(i), TS: int64(i)}) {
				i++
			} else {
				runtime.Gosched() // full: let the consumer drain
			}
		}
	}()
	buf := make([]event, 17)
	want := uint64(0)
	for want < total {
		n := r.PopBatch(buf)
		for _, ev := range buf[:n] {
			if ev.Act != want {
				t.Fatalf("got act %d, want %d (reorder or loss)", ev.Act, want)
			}
			want++
		}
	}
	<-done
	if n := r.PopBatch(buf); n != 0 {
		t.Fatalf("ring not empty after %d events: %d left", total, n)
	}
}
