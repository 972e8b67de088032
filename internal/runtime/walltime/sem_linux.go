package walltime

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// States of the futex word.
const (
	semEmpty    uint32 = iota // no wake pending, the loop is not asleep
	semRaised                 // a wake is pending
	semSleeping               // the loop is asleep in FUTEX_WAIT, or about to be
)

// Private futex operations: the word is never shared with another process.
const (
	futexWaitPrivate = 0 | 128 // FUTEX_WAIT | FUTEX_PRIVATE_FLAG
	futexWakePrivate = 1 | 128 // FUTEX_WAKE | FUTEX_PRIVATE_FLAG
)

// Sem is the monitor wake semaphore: a binary token so that any number of
// producer wakes before the next scan collapse into one pass, like the
// POSIX semaphore of the paper's implementation. On Linux it is one futex
// word, and a timed wait sleeps in FUTEX_WAIT with a nanosecond timeout, as
// glibc's sem_timedwait does. A Go timer would wake the loop on the
// runtime's netpoller, whose epoll_wait timeout is whole milliseconds.
type Sem struct{ state atomic.Uint32 }

// NewSem creates an empty semaphore.
func NewSem() *Sem { return &Sem{} }

// Wake raises the semaphore. Like sem_post, it enters the kernel only when
// the loop is asleep; a wake while one is pending costs one atomic swap.
// FUTEX_WAKE never blocks, so the raw syscall leaves the caller's P alone.
func (s *Sem) Wake() {
	if s.state.Swap(semRaised) == semSleeping {
		syscall.RawSyscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&s.state)),
			futexWakePrivate, 1, 0, 0, 0)
	}
}

// wait blocks until the semaphore is raised or bound has passed, whichever
// comes first (a negative bound waits for a wake alone), takes the pending
// wake and reports whether there was one. A signal may end the sleep early;
// the caller then runs one pass too many, never one too few. Only the loop
// goroutine waits.
//
// A Wake that lands between announcing the sleep and entering FUTEX_WAIT
// changes the word, so the kernel refuses the sleep: no wake is lost.
func (s *Sem) wait(bound time.Duration) bool {
	if bound != 0 && s.state.CompareAndSwap(semEmpty, semSleeping) {
		var ts *syscall.Timespec
		if bound > 0 {
			t := syscall.NsecToTimespec(int64(bound))
			ts = &t
		}
		// Syscall6, not RawSyscall6: the runtime must see the thread
		// blocked in a syscall, so that it can hand its P to other
		// goroutines while the loop sleeps.
		syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&s.state)),
			futexWaitPrivate, uintptr(semSleeping), uintptr(unsafe.Pointer(ts)), 0, 0)
	}
	return s.state.Swap(semEmpty) == semRaised
}
