// Package simtime adapts the deterministic simulation substrate
// (internal/sim, internal/vclock) to the runtime abstraction the monitors
// are written against. Every adapter is a zero-state wrapper that forwards
// to exactly one kernel or thread operation, in the same order the monitor
// issues them — the property that keeps a refactored monitor bit-for-bit
// identical to its pre-abstraction behaviour (same RNG draw order, same
// event scheduling order).
package simtime

import (
	rt "chainmon/internal/runtime"
	"chainmon/internal/sim"
)

// Clock reads the simulation kernel's virtual time.
type Clock struct{ K *sim.Kernel }

// Now returns the current virtual time.
func (c Clock) Now() rt.Time { return rt.Time(c.K.Now()) }

// TimerHost schedules one-shot timers on the kernel event queue. The timer
// handle is the kernel event itself (sim.Event.Cancel is idempotent and a
// no-op once the event fired), so arming a timer allocates the event and
// nothing else. The events are not pooled: the monitor keeps the handle
// after the timer fired.
type TimerHost struct{ K *sim.Kernel }

// After schedules fn d from now.
func (h TimerHost) After(d rt.Duration, fn func()) rt.Timer {
	return h.K.After(d, fn)
}

// At schedules fn at the absolute virtual time t with the given event
// priority (ties at the same instant fire in priority order).
func (h TimerHost) At(t rt.Time, priority int, fn func()) rt.Timer {
	return h.K.AtPriority(sim.Time(t), priority, fn)
}

// Executor dispatches work onto a simulated thread. The started time passed
// to fn is the work item's dispatch time, after queueing and wakeup
// latency.
type Executor struct{ T *sim.Thread }

// Exec enqueues with a modeled wakeup (context-switch) latency.
func (e Executor) Exec(label string, cost rt.Duration, fn func(started rt.Time)) {
	var w *sim.WorkItem
	w = e.T.Enqueue(label, cost, func() { fn(rt.Time(w.Started())) })
}

// ExecDirect enqueues without a wakeup — the thread dispatching to itself.
func (e Executor) ExecDirect(label string, cost rt.Duration, fn func(started rt.Time)) {
	var w *sim.WorkItem
	w = e.T.EnqueueDirect(label, cost, func() { fn(rt.Time(w.Started())) })
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
