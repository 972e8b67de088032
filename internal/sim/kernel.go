package sim

import (
	"fmt"
	"math"
)

// EventFunc is the action executed when a scheduled event fires.
type EventFunc func()

// Event is a scheduled occurrence in the simulation. Events are ordered by
// time; ties are broken by priority (higher first) and then by insertion
// order, which keeps runs deterministic.
//
// Every event is recycled: once it fires or is canceled it returns to the
// kernel's freelist, and a later schedule reuses it. A handle kept past that
// point is stale, so a caller that may cancel after the event fired keeps
// the event together with its Seq and cancels with CancelSeq.
type Event struct {
	k        *Kernel
	at       Time
	seq      uint64
	fn       EventFunc
	priority int32
	index    int32 // heap index; -1 once fired or canceled
}

// Seq returns the event's schedule sequence number. Each schedule draws a
// new one, so it is the generation of a recycled event: a handle that keeps
// the event with its Seq tells its own schedule from a later one that reuses
// the event.
func (e *Event) Seq() uint64 { return e.seq }

// CancelSeq cancels the event if it is still pending under the schedule
// numbered seq, and does nothing once that schedule fired or was canceled,
// also while the event is parked on the freelist or holds a later schedule.
// With it *Event is the slot of a runtime.Timer, so a timer may be canceled
// after it fired.
func (e *Event) CancelSeq(seq uint64) {
	if e.seq == seq && e.index >= 0 {
		e.k.cancel(e)
	}
}

// before is the queue order: earlier time first, then higher priority, then
// earlier scheduling. seq is unique, so the order is strict and total — the
// pop sequence does not depend on the heap's internal layout.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.priority != o.priority {
		return e.priority > o.priority
	}
	return e.seq < o.seq
}

// Kernel is the discrete-event simulation core: a virtual clock and a queue
// of pending events. A Kernel is not safe for concurrent use; the simulation
// is single-threaded by design so that runs are deterministic.
type Kernel struct {
	now Time
	// queue is a binary min-heap in before order; each event keeps its
	// slot in index. It is written out by hand: container/heap would make
	// an interface call for every comparison and swap.
	queue   []*Event
	seq     uint64
	stopped bool
	// executed counts fired events, useful for progress assertions in tests.
	executed uint64
	// queueProbe, when set, observes the queue depth after every heap
	// mutation (push, pop, remove). It is a plain callback rather than a
	// telemetry type so sim stays free of telemetry imports.
	queueProbe func(depth int)
	// free is the Event freelist every schedule draws from. The queue under
	// periodic load stays shallow (max depth ~4 in the overload churn
	// benchmark), so a handful of recycled events serves the entire run and
	// the per-event heap allocation disappears from the hot path.
	free []*Event
}

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the number of events fired so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of events currently scheduled.
func (k *Kernel) Pending() int { return len(k.queue) }

// SetQueueProbe installs (or, with nil, removes) an observer called with the
// event-queue depth after every heap operation. The probe must not schedule
// or cancel events.
func (k *Kernel) SetQueueProbe(fn func(depth int)) { k.queueProbe = fn }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a modelling bug.
func (k *Kernel) At(t Time, fn EventFunc) *Event {
	return k.AtPriority(t, 0, fn)
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Duration, fn EventFunc) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.AtPriority(k.now.Add(d), 0, fn)
}

// AtPriority schedules fn at time t with an explicit tie-break priority
// (higher priority fires first among events at the same instant). The event
// comes off the freelist when one is parked there.
func (k *Kernel) AtPriority(t Time, priority int, fn EventFunc) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	k.seq++
	var e *Event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &Event{k: k}
	}
	e.at, e.priority, e.seq, e.fn = t, int32(priority), k.seq, fn
	k.push(e)
	if k.queueProbe != nil {
		k.queueProbe(len(k.queue))
	}
	return e
}

// FreeEvents returns the current freelist length (events parked between
// schedules), for allocation assertions in tests.
func (k *Kernel) FreeEvents() int { return len(k.free) }

// cancel takes the pending event e off the queue and parks it on the
// freelist.
func (k *Kernel) cancel(e *Event) {
	k.remove(int(e.index))
	if k.queueProbe != nil {
		k.queueProbe(len(k.queue))
	}
	k.release(e)
}

// release parks an event that can no longer fire on the freelist.
func (k *Kernel) release(e *Event) {
	e.fn = nil
	k.free = append(k.free, e)
}

// Step fires the next pending event and advances the clock to it.
// It reports whether an event was fired.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := k.remove(0)
	if k.queueProbe != nil {
		k.queueProbe(len(k.queue))
	}
	if e.at < k.now {
		panic("sim: time went backwards")
	}
	k.now = e.at
	k.executed++
	fn := e.fn
	// Recycle before firing: fn's own rescheduling reuses the slot at once
	// (the self-perpetuating periodic pattern runs allocation-free), and a
	// handle kept past this point is stale, so its CancelSeq does nothing.
	k.release(e)
	fn()
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil executes events with time ≤ horizon, then sets the clock to the
// horizon. Events scheduled beyond the horizon stay pending.
func (k *Kernel) RunUntil(horizon Time) {
	k.stopped = false
	for !k.stopped && len(k.queue) > 0 && k.queue[0].at <= horizon {
		k.Step()
	}
	if k.now < horizon {
		k.now = horizon
	}
}

// RunFor executes events within the next d of virtual time.
func (k *Kernel) RunFor(d Duration) {
	k.RunUntil(k.now.Add(d))
}

// push inserts e into the queue.
func (k *Kernel) push(e *Event) {
	k.queue = append(k.queue, e)
	k.up(len(k.queue)-1, e)
}

// remove takes the event at heap slot i out of the queue and returns it.
func (k *Kernel) remove(i int) *Event {
	q := k.queue
	n := len(q) - 1
	e := q[i]
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if i != n {
		k.sift(i, last)
	}
	e.index = -1
	return e
}

// sift places e into hole i, then moves it down or up to its position.
func (k *Kernel) sift(i int, e *Event) {
	if !k.down(i, e) {
		k.up(i, e)
	}
}

// up moves e from hole i toward the root until its parent fires first.
func (k *Kernel) up(i int, e *Event) {
	q := k.queue
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i)
		i = p
	}
	q[i] = e
	e.index = int32(i)
}

// down moves e from hole i toward the leaves until both children fire
// later; it reports whether e moved.
func (k *Kernel) down(i int, e *Event) bool {
	q := k.queue
	n := len(q)
	i0 := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		q[i].index = int32(i)
		i = c
	}
	q[i] = e
	e.index = int32(i)
	return i > i0
}

// Stop makes Run/RunUntil return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64
