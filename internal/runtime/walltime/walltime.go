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

// Sem is the monitor wake semaphore: a binary token so that any number of
// producer wakes before the next scan collapse into one pass, exactly like
// the POSIX semaphore of the paper's implementation.
type Sem struct{ ch chan struct{} }

// NewSem creates an empty semaphore.
func NewSem() *Sem { return &Sem{ch: make(chan struct{}, 1)} }

// Wake raises the semaphore (non-blocking: a pending wake is enough).
func (s *Sem) Wake() {
	select {
	case s.ch <- struct{}{}:
	default:
	}
}

// ForceWake raises the semaphore. On the wall-clock runtime a pending wake
// already guarantees a future scan pass, so Force and regular wakes
// coincide; the distinction matters only for the simtime scheduler.
func (s *Sem) ForceWake() { s.Wake() }

// C exposes the wait side of the semaphore to the monitor loop.
func (s *Sem) C() <-chan struct{} { return s.ch }

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

	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewLoop creates a loop; Scan and Next must be set before Start.
func NewLoop(clock *Clock, sem *Sem) *Loop {
	return &Loop{
		Clock: clock,
		Sem:   sem,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
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
// one last Scan on the calling goroutine. The loop picks at random between
// a stop and a wake that are both ready, so a wake raised just before Stop
// may get no pass from the loop; the final pass drains every event posted
// before Stop and fires every deadline already due.
func (l *Loop) Stop() {
	close(l.stop)
	<-l.done
	l.Scan()
}

func (l *Loop) run() {
	// The paper runs the monitor thread at the highest real-time priority;
	// the closest Go equivalent is a dedicated OS thread.
	goruntime.LockOSThread()
	defer goruntime.UnlockOSThread()
	defer close(l.done)

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		wait := time.Hour
		if dl, ok := l.Next(); ok {
			wait = dl.Sub(l.Clock.Now())
			if wait < 0 {
				wait = 0
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-l.stop:
			return
		case <-l.Sem.C():
		case <-timer.C:
		}
		l.Scan()
	}
}
