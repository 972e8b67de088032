// Package simtime adapts the deterministic simulation substrate
// (internal/sim, internal/vclock) to the runtime abstraction the monitors
// are written against. Every adapter forwards to exactly one kernel or
// thread operation, in the same order the monitor issues them — the
// property that keeps a refactored monitor bit-for-bit identical to its
// pre-abstraction behaviour (same RNG draw order, same event scheduling
// order). The only state an adapter keeps is the Executor's freelist of
// dispatch records.
package simtime

import (
	rt "chainmon/internal/runtime"
	"chainmon/internal/sim"
)

// Clock reads the simulation kernel's virtual time.
type Clock struct{ K *sim.Kernel }

// Now returns the current virtual time.
func (c Clock) Now() rt.Time { return rt.Time(c.K.Now()) }

// TimerHost schedules one-shot timers on kernel events. The handle is the
// event with the sequence number of its schedule (sim.Event.Seq), so once
// the kernel's freelist is warm arming a timer allocates nothing, and
// cancelling it after it fired does nothing, even when a later schedule
// reuses the event.
type TimerHost struct{ K *sim.Kernel }

// After schedules fn d from now.
func (h TimerHost) After(d rt.Duration, fn func()) rt.Timer {
	return timer(h.K.After(d, fn))
}

// At schedules fn at the absolute virtual time t with the given event
// priority (ties at the same instant fire in priority order).
func (h TimerHost) At(t rt.Time, priority int, fn func()) rt.Timer {
	return timer(h.K.AtPriority(sim.Time(t), priority, fn))
}

func timer(e *sim.Event) rt.Timer { return rt.NewTimer(e, e.Seq()) }

// Executor dispatches work onto a simulated thread. The started time passed
// to fn is the work item's dispatch time, after queueing and wakeup
// latency. Each dispatch rides on a recycled record whose run method is
// bound once, so a warm executor dispatches without allocating.
type Executor struct {
	t    *sim.Thread
	free *dispatch
}

// NewExecutor returns an executor on thread t.
func NewExecutor(t *sim.Thread) *Executor { return &Executor{t: t} }

// Exec enqueues with a modeled wakeup (context-switch) latency.
func (e *Executor) Exec(label string, cost rt.Duration, fn func(started rt.Time)) {
	d := e.bind(fn)
	d.w = e.t.Enqueue(label, cost, d.run)
}

// ExecDirect enqueues without a wakeup — the thread dispatching to itself.
func (e *Executor) ExecDirect(label string, cost rt.Duration, fn func(started rt.Time)) {
	d := e.bind(fn)
	d.w = e.t.EnqueueDirect(label, cost, d.run)
}

// bind takes a dispatch record off the freelist, or allocates one, for fn.
func (e *Executor) bind(fn func(started rt.Time)) *dispatch {
	d := e.free
	if d == nil {
		d = &dispatch{e: e}
		d.run = d.fire
	} else {
		e.free = d.next
		d.next = nil
	}
	d.fn = fn
	return d
}

// dispatch adapts one work item's completion to fn(started). w is the item,
// valid until fire returns; run is the bound fire method value.
type dispatch struct {
	e    *Executor
	w    *sim.WorkItem
	fn   func(started rt.Time)
	run  func()
	next *dispatch
}

// fire runs fn with the item's dispatch time. The record goes back on the
// freelist first, since fn may dispatch again.
func (d *dispatch) fire() {
	fn, started := d.fn, rt.Time(d.w.Started())
	d.fn, d.w = nil, nil
	d.next, d.e.free = d.e.free, d
	fn(started)
}

// GlobalAfterer is the part of a synchronized virtual clock
// (internal/vclock) the SyncClock adapter needs.
type GlobalAfterer interface {
	GlobalAfter(localDeadline sim.Time) sim.Duration
}

// SyncClock adapts a PTP-synchronized virtual clock.
type SyncClock struct{ C GlobalAfterer }

// GlobalAfter converts a sender-clock deadline into a local delay.
func (c SyncClock) GlobalAfter(localDeadline rt.Time) rt.Duration {
	return c.C.GlobalAfter(sim.Time(localDeadline))
}
