package walltime

import (
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
	n := 0
	for {
		select {
		case <-s.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Errorf("pending wakes = %d, want 1", n)
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
// held, then stops the loop before releasing the pass. The loop then finds
// the stop and the wake both ready and may take either, so only Stop's own
// final pass guarantees that the wake gets a pass of its own.
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
		<-loop.stop // Stop has signalled the loop
		close(release)
		<-stopped
		if passes < 2 {
			t.Fatalf("iteration %d: %d pass(es), want a second pass for the wake raised before Stop", i, passes)
		}
	}
}
