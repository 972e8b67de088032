package walltime

import (
	"slices"
	"testing"
	"time"

	rt "chainmon/internal/runtime"
)

// TestLoopWakesNearDeadline re-arms a deadline 200 µs after each pass and
// measures how late the loop starts the next pass. A loop woken by a Go
// timer starts it about a millisecond late, since the Linux runtime sleeps
// in epoll_wait, whose timeout is whole milliseconds; FUTEX_WAIT's is
// nanoseconds, and the loop wakes within the thread's timer slack.
func TestLoopWakesNearDeadline(t *testing.T) {
	const (
		passes = 60
		period = 200 * time.Microsecond
	)
	clock, sem := NewClock(), NewSem()
	loop := NewLoop(clock, sem)
	var (
		dl       rt.Time
		armed    bool
		lateness = make([]time.Duration, 0, passes)
		done     = make(chan struct{})
	)
	loop.Next = func() (rt.Time, bool) { return dl, armed }
	loop.Scan = func() {
		now := clock.Now()
		if armed && len(lateness) < passes {
			if lateness = append(lateness, now.Sub(dl)); len(lateness) == passes {
				close(done)
			}
		}
		dl, armed = now.Add(period), true
	}
	loop.Start()
	sem.Wake() // the first pass arms the first deadline
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the loop stopped waking at its deadlines")
	}
	loop.Stop()
	slices.Sort(lateness)
	med := lateness[passes/2]
	t.Logf("lateness past a deadline: min %v, median %v, max %v", lateness[0], med, lateness[passes-1])
	if med >= 500*time.Microsecond {
		t.Errorf("median lateness %v, want below 500µs", med)
	}
}
