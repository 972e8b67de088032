//go:build !linux

package walltime

import "time"

// Sem is the monitor wake semaphore: a binary token so that any number of
// producer wakes before the next scan collapse into one pass, like the
// POSIX semaphore of the paper's implementation. Off Linux it is a
// one-slot channel, and a timed wait arms a Go timer, so the loop wakes as
// late as the runtime fires timers on the platform.
type Sem struct {
	ch    chan struct{}
	timer *time.Timer // the waiter's, stopped between waits
}

// NewSem creates an empty semaphore.
func NewSem() *Sem {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &Sem{ch: make(chan struct{}, 1), timer: t}
}

// Wake raises the semaphore (non-blocking: a pending wake is enough).
func (s *Sem) Wake() {
	select {
	case s.ch <- struct{}{}:
	default:
	}
}

// wait blocks until the semaphore is raised or bound has passed, whichever
// comes first (a negative bound waits for a wake alone), takes the pending
// wake and reports whether there was one. Only the loop goroutine waits.
func (s *Sem) wait(bound time.Duration) bool {
	switch {
	case bound < 0:
		<-s.ch
		return true
	case bound == 0:
		select {
		case <-s.ch:
			return true
		default:
			return false
		}
	}
	s.timer.Reset(bound)
	select {
	case <-s.ch:
		if !s.timer.Stop() {
			select {
			case <-s.timer.C:
			default:
			}
		}
		return true
	case <-s.timer.C:
		return false
	}
}
