package walltime

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	rt "chainmon/internal/runtime"
)

func TestClockMonotonic(t *testing.T) {
	c := NewClock()
	a := c.Now()
	time.Sleep(time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Errorf("clock not monotonic: %d then %d", a, b)
	}
}

func TestSemCoalesces(t *testing.T) {
	s := NewSem()
	s.Wake()
	s.Wake()
	s.ForceWake()
	if !s.wait(time.Second) {
		t.Fatal("no pending wake after three wakes")
	}
	if s.wait(0) {
		t.Error("three wakes left a second pending wake")
	}
}

// The loop must run a scan for a semaphore wake and sleep until the
// earliest core deadline.
func TestLoopDrivesCoreDeadlines(t *testing.T) {
	clock := NewClock()
	sem := NewSem()
	core := rt.NewCore()
	var expired atomic.Uint64
	seg := core.AddSegment("s", 20*time.Millisecond, NewRing(16), NewRing(16), rt.SegmentHooks{
		Expire: func(rt.Event, rt.Time, rt.Time) { expired.Add(1) },
	})
	loop := NewLoop(clock, sem)
	loop.Scan = func() { core.Scan(clock.Now()) }
	loop.Next = core.NextDeadline
	loop.Start()

	seg.StartRing().Post(rt.Event{Act: 1, TS: clock.Now()})
	sem.Wake()
	time.Sleep(5 * time.Millisecond)
	if got := expired.Load(); got != 0 {
		t.Fatalf("expired before the deadline: %d", got)
	}
	deadline := time.After(2 * time.Second)
	for expired.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("timeout never fired")
		case <-time.After(time.Millisecond):
		}
	}
	loop.Stop()
	if got := expired.Load(); got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
}

// TestLoopStartTwicePanics: a loop owns one monitor goroutine, so a second
// Start is a programming error.
func TestLoopStartTwicePanics(t *testing.T) {
	loop := NewLoop(NewClock(), NewSem())
	loop.Scan = func() {}
	loop.Next = func() (rt.Time, bool) { return 0, false }
	loop.Start()
	defer loop.Stop()
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	loop.Start()
}

// TestLoopStopRunsPendingWake raises a wake while the loop's first pass is
// held, then stops the loop before releasing the pass. The wake coalesces
// with Stop's own, and the loop returns without a pass once it sees the
// stop, so only Stop's final pass gives the wake a pass of its own.
func TestLoopStopRunsPendingWake(t *testing.T) {
	for i := 0; i < 20; i++ {
		sem := NewSem()
		loop := NewLoop(NewClock(), sem)
		entered, release := make(chan struct{}), make(chan struct{})
		passes := 0 // loop goroutine, then the Stop caller; read after Stop
		loop.Scan = func() {
			passes++
			if passes == 1 {
				close(entered)
				<-release
			}
		}
		loop.Next = func() (rt.Time, bool) { return 0, false }
		loop.Start()
		sem.Wake()
		<-entered
		sem.Wake()
		stopped := make(chan struct{})
		go func() {
			loop.Stop()
			close(stopped)
		}()
		for !loop.stopping.Load() { // Stop has signalled the loop
			runtime.Gosched()
		}
		close(release)
		<-stopped
		if passes < 2 {
			t.Fatalf("iteration %d: %d pass(es), want a second pass for the wake raised before Stop", i, passes)
		}
	}
}

// TestSemNoLostWake posts events one at a time, each followed by a wake, to
// a loop with nothing armed, which sleeps until woken. The ring is small,
// so the producer keeps catching the loop asleep. A lost wake leaves the
// loop asleep with events in the ring: the producer then finds the ring
// full for good, or the last events are never drained. Stop must then end
// the sleeping loop.
func TestSemNoLostWake(t *testing.T) {
	const events = 100_000
	clock, sem := NewClock(), NewSem()
	ring := NewRing(64)
	loop := NewLoop(clock, sem)
	var (
		buf      = make([]rt.Event, 64)
		drained  uint64 // loop goroutine only; read after Stop
		inOrder  = true
		finished = make(chan struct{})
	)
	loop.Next = func() (rt.Time, bool) { return 0, false }
	loop.Scan = func() {
		for n := ring.PopBatch(buf); n > 0; n = ring.PopBatch(buf) {
			for _, ev := range buf[:n] {
				inOrder = inOrder && ev.Act == drained
				if drained++; drained == events {
					close(finished)
				}
			}
		}
	}
	loop.Start()
	go func() {
		for i := uint64(0); i < events; i++ {
			for !ring.Post(rt.Event{Act: i}) {
				runtime.Gosched() // full: the loop holds a wake for it
			}
			sem.Wake()
		}
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d events still in the ring: a wake was lost", ring.Len())
	}
	stopped := make(chan struct{})
	go func() {
		loop.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not end the sleeping loop")
	}
	if drained != events || !inOrder {
		t.Errorf("drained %d events (in order: %v), want %d in order", drained, inOrder, events)
	}
}
