// Package walltime is the wall-clock implementation of the runtime
// abstraction: a monotonic clock, the wait-free SPSC event ring, a binary
// semaphore waker, and the monitor goroutine loop (the paper's per-ECU
// high-priority monitor thread). There are no per-activation timers: the
// loop sleeps until the core's earliest armed deadline.
//
// The virtual-time model in internal/runtime/simtime reproduces the
// system-level behaviour; this package exists because the
// microsecond-scale overheads the paper reports in Fig. 11 (start/end
// event posting, monitor latency, monitor execution time) are the one
// thing a simulator cannot honestly produce.
package walltime

import (
	goruntime "runtime"
	"sync/atomic"
	"time"

	rt "chainmon/internal/runtime"
)

// Clock is a monotonic wall clock; times are nanoseconds since the clock
// was created.
type Clock struct{ epoch time.Time }

// NewClock creates a clock whose epoch is now.
func NewClock() *Clock { return &Clock{epoch: time.Now()} }

// Now returns the monotonic time since the epoch.
func (c *Clock) Now() rt.Time { return rt.Time(time.Since(c.epoch)) }

// ForceWake raises the semaphore. On the wall-clock runtime a pending wake
// already guarantees a future scan pass, so Force and regular wakes
// coincide; the distinction matters only for the simtime scheduler.
func (s *Sem) ForceWake() { s.Wake() }

// Loop is the monitor goroutine: wait on the semaphore with a timeout at
// the earliest pending deadline (sem_timedwait), then run one scan pass.
// Scan drains all rings in fixed order and fires due exceptions; Next
// reports the earliest armed deadline (normally Core.NextDeadline).
type Loop struct {
	Clock *Clock
	Sem   *Sem
	// Scan runs one monitor pass. The loop goroutine calls it, and Stop
	// calls it once more after that goroutine has exited, so passes never
	// overlap.
	Scan func()
	// Next returns the earliest armed deadline, if any.
	Next func() (rt.Time, bool)

	stopping atomic.Bool
	done     chan struct{}
	started  bool
}

// NewLoop creates a loop; Scan and Next must be set before Start.
func NewLoop(clock *Clock, sem *Sem) *Loop {
	return &Loop{Clock: clock, Sem: sem, done: make(chan struct{})}
}

// Start launches the monitor goroutine.
func (l *Loop) Start() {
	if l.started {
		panic("walltime: Loop started twice")
	}
	l.started = true
	go l.run()
}

// Stop terminates the monitor goroutine, waits for it to exit, then runs
// one last Scan on the calling goroutine. Stop's own wake coalesces with
// any wake still pending, and the loop returns without a pass once it sees
// the stop, so the final pass drains every event posted before Stop and
// fires every deadline already due.
func (l *Loop) Stop() {
	l.stopping.Store(true)
	l.Sem.Wake()
	<-l.done
	l.Scan()
}

func (l *Loop) run() {
	// The paper runs the monitor thread at the highest real-time priority;
	// the closest Go equivalent is a dedicated OS thread.
	goruntime.LockOSThread()
	defer goruntime.UnlockOSThread()
	defer close(l.done)

	for {
		bound := time.Duration(-1) // nothing armed: sleep until a wake
		if dl, ok := l.Next(); ok {
			bound = max(dl.Sub(l.Clock.Now()), 0)
		}
		l.Sem.wait(bound)
		if l.stopping.Load() {
			return
		}
		l.Scan()
	}
}
