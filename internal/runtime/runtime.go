// Package runtime defines the timebase abstraction under the latency
// monitors: a clock, timers, an event ring and a wake primitive. The same
// monitor core (see Core) runs against two implementations:
//
//   - internal/runtime/simtime adapts the deterministic discrete-event
//     kernel (internal/sim) and the synchronized virtual clocks
//     (internal/vclock). Every chain experiment runs on it, bit-for-bit
//     reproducibly for a given seed.
//   - internal/runtime/walltime provides a monotonic wall clock, the
//     wait-free SPSC ring, a semaphore and the monitor loop for real
//     goroutines. The Fig. 11 overheads and `cmd/chainmon -realtime` run on
//     it, through monitor.NewWallclockMonitor.
//
// The contract that keeps the simtime path deterministic is documented in
// docs/runtime.md: implementations must not introduce hidden clock reads or
// reorder the calls the core makes; Scan takes the current time as an
// argument instead of sampling a clock internally.
package runtime

import "time"

// Time is a point in time in nanoseconds since an implementation-defined
// epoch: simulation start for simtime, monitor creation for walltime. It is
// layout-compatible with sim.Time.
type Time int64

// Duration is a span of time in nanoseconds, identical to time.Duration
// (and therefore to sim.Duration).
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Event is one start or end event posted by instrumented middleware code:
// the activation index, the posting timestamp, and the causal-flow identity
// of the activation (telemetry.FlowID; 0 when the producer is not traced).
// The Core carries Flow through its timeout bookkeeping so the Arm/OK/Expire
// hooks can tag their trace events with the same identity the middleware
// hops used — one flow id from publication to verdict.
type Event struct {
	Act  uint64
	TS   Time
	Flow uint32
}

// EventRing is the transport between the instrumented producer and the
// monitor. Post is called by a single producer and must never block; it
// returns false when the ring is full (a monitoring overload fault).
// PopBatch is called only by the monitor: it moves up to len(buf) events
// into buf in posting order and returns the count, so one scan pass drains
// a whole burst with one call per ring.
type EventRing interface {
	Post(Event) bool
	PopBatch(buf []Event) int
	Len() int
}

// Timer is the handle of an armed one-shot timer: the slot the timebase
// armed it in and the sequence number it was armed under, its generation.
// It is a value, so arming a timer boxes nothing. A timebase may reuse a
// slot for a later timer once this one fired or was cancelled; the
// generation tells the two apart, so Cancel on a stale handle does nothing.
// The zero Timer is no timer.
type Timer struct {
	slot TimerSlot
	seq  uint64
}

// TimerSlot is the timebase's side of a Timer. Its dynamic value should be
// a pointer, so that storing it in a Timer does not allocate. CancelSeq
// cancels the slot's pending timer if it was armed under sequence number
// seq, and does nothing otherwise: that timer already fired or was
// cancelled, or the slot now holds a later one.
type TimerSlot interface {
	CancelSeq(seq uint64)
}

// NewTimer returns the handle of the timer armed in slot under sequence
// number seq.
func NewTimer(slot TimerSlot, seq uint64) Timer { return Timer{slot: slot, seq: seq} }

// Cancel cancels the timer unless it already fired or was cancelled. It is
// idempotent and does nothing on the zero Timer.
func (t Timer) Cancel() {
	if t.slot != nil {
		t.slot.CancelSeq(t.seq)
	}
}

// TimerHost arms one-shot timers relative to now.
type TimerHost interface {
	After(d Duration, fn func()) Timer
}

// Clock reads the current time of the timebase.
type Clock interface {
	Now() Time
}

// SyncClock is a PTP-style synchronized clock: GlobalAfter converts a
// deadline on the *sender's* clock into a local delay, the operation the
// sync-based remote monitor needs to program its reception timer.
type SyncClock interface {
	GlobalAfter(localDeadline Time) Duration
}

// Waker is the monitor wake primitive (the paper's semaphore). Wake may
// coalesce with an already-pending wake; ForceWake must guarantee one more
// scan pass strictly after the call (timeout timers use it so that a scan
// already queued, but possibly running before the deadline, cannot swallow
// the timeout).
type Waker interface {
	Wake()
	ForceWake()
}

// Executor dispatches bounded-cost work onto the monitor's execution
// context. Exec models a regular wakeup (queue + context switch); ExecDirect
// models the monitor thread dispatching to itself (no wakeup — handlers of
// simultaneous exceptions run back to back). fn receives the time the work
// actually started executing.
type Executor interface {
	Exec(label string, cost Duration, fn func(started Time))
	ExecDirect(label string, cost Duration, fn func(started Time))
}

// SliceRing is the unbounded, allocation-reusing EventRing of the simtime
// path. The virtual-time model has no producer/consumer concurrency, so the
// ring never rejects a post; storage is reused once drained.
type SliceRing struct {
	buf  []Event
	head int
}

// Post appends the event; it always succeeds.
func (r *SliceRing) Post(ev Event) bool {
	r.buf = append(r.buf, ev)
	return true
}

// Pop removes the oldest event; the backing storage is reused after the
// ring runs empty. The monitor drains with PopBatch; Pop is the
// one-at-a-time reference the PopBatch tests compare against.
func (r *SliceRing) Pop() (Event, bool) {
	if r.head >= len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
		return Event{}, false
	}
	ev := r.buf[r.head]
	r.head++
	return ev, true
}

// PopBatch moves up to len(buf) oldest events into buf, in posting order.
func (r *SliceRing) PopBatch(buf []Event) int {
	n := copy(buf, r.buf[r.head:])
	r.head += n
	if r.head >= len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	}
	return n
}

// Len returns the number of buffered events.
func (r *SliceRing) Len() int { return len(r.buf) - r.head }
