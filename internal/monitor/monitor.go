// Package monitor implements the paper's core contribution: decentralized
// online latency monitoring of event chains with weakly-hard (m,k)
// constraints.
//
// An event chain is segmented into local segments (receive → publication or
// reception on the same ECU, possibly spanning several processes) and remote
// segments (publication → reception on another ECU). Local segments are
// supervised by a per-ECU high-priority monitor thread fed through
// shared-memory ring buffers (LocalMonitor); remote segments are supervised
// at the receiver by interpreting the transmitted source timestamps of the
// PTP-synchronized sender (RemoteMonitor), or — as the inferior baseline the
// paper analyzes — by plain inter-arrival supervision (InterArrivalMonitor).
//
// When a segment's end event does not occur within its monitored deadline
// d_mon, a temporal exception is raised and the application's exception
// handler decides between recovery (substitute data is published or a
// receive event is issued; the activation does not count as a miss) and
// propagation (the miss is forwarded along the chain so that per-segment
// (m,k) accounting remains sound for the end-to-end constraint) — exactly
// Algorithms 1 and 2 of the paper.
package monitor

import (
	"fmt"

	"chainmon/internal/sim"
	"chainmon/internal/weaklyhard"
)

// Status is the resolution of one segment activation.
type Status int

// Resolution statuses.
const (
	// StatusOK: the end event occurred within the monitored deadline
	// (or before the monitor processed the timeout).
	StatusOK Status = iota
	// StatusRecovered: a temporal exception was raised and the
	// application handler recovered with substitute data; the activation
	// does not count as a deadline miss.
	StatusRecovered
	// StatusMissed: a temporal exception was raised and not recovered;
	// the miss counts against the (m,k) constraint and is propagated.
	StatusMissed
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRecovered:
		return "recovered"
	case StatusMissed:
		return "missed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Recovery is the substitute data a handler provides when it can recover
// from a temporal exception (the non-nil return of user_exception in
// Algorithms 1 and 2).
type Recovery struct {
	Data any
	Size int
}

// ExceptionContext is passed to application exception handlers.
type ExceptionContext struct {
	// Segment is the name of the violating segment.
	Segment string
	// Activation is the chain execution index n.
	Activation uint64
	// Misses is the current number of misses within the last k executions
	// (the argument m of Algorithms 1 and 2), including this activation if
	// it ends up missed.
	Misses int
	// Budget is how many further misses the (m,k) window tolerates.
	Budget int
	// Propagated reports whether this exception was propagated from a
	// preceding segment rather than raised by this segment's own timeout.
	Propagated bool
	// RaisedAt is the global time the temporal exception was raised.
	RaisedAt sim.Time
}

// Handler is an application-specific exception handler. Returning nil
// propagates the violation; returning a Recovery recovers with substitute
// data. Handlers run on the monitor thread at the highest priority, so
// their cost must be small and bounded (d_ex).
type Handler func(*ExceptionContext) *Recovery

// Resolution records the outcome of one segment activation for tracing.
type Resolution struct {
	Activation uint64
	Status     Status
	// Start and End are global event times. For exception cases End is the
	// completion of the exception handler ("the end of the temporal
	// exception"); Start is zero for propagated-in activations that never
	// started.
	Start, End sim.Time
	// Latency is End-Start (the monitored segment latency definition:
	// end event or exception end, whichever occurs first).
	Latency sim.Duration
	// Exception reports whether a temporal exception was raised.
	Exception bool
	// HandlerEntry/HandlerDone bound the exception handling, when any.
	HandlerEntry, HandlerDone sim.Time
	// DetectionLatency is HandlerEntry minus the programmed deadline: the
	// time it took to detect the timeout and enter the handler (Figs. 10
	// and 12).
	DetectionLatency sim.Duration
}

// LatencySample returns the resolution's monitored-latency measurement and
// whether it contributes one. This is THE inclusion rule shared by the
// offline SegmentStats sample and the live sketch, so the two always
// summarize the same stream: propagated-in activations never started and
// contribute nothing; exception cases contribute their handler-completion
// latency only when positive; OK resolutions always contribute (a same-
// timestamp end event is a legitimate zero).
func (r Resolution) LatencySample() (sim.Duration, bool) {
	if r.Start == 0 && r.Status != StatusOK {
		return 0, false
	}
	if r.Latency > 0 || r.Status == StatusOK {
		return r.Latency, true
	}
	return 0, false
}

// SegmentConfig parameterizes one monitored segment.
type SegmentConfig struct {
	// Name identifies the segment (e.g. "s1/fusion").
	Name string
	// DMon is the monitored deadline d_mon: a temporal exception is raised
	// if the end event does not occur within DMon of the start event.
	DMon sim.Duration
	// DEx is the budgeted worst-case exception handling latency; the
	// segment deadline is d = DMon + DEx. DEx is bookkeeping for the
	// budgeting step — the actual handler cost is HandlerCost.
	DEx sim.Duration
	// Period is the activation period of the chain.
	Period sim.Duration
	// Constraint is the weakly-hard constraint applied to this segment
	// (the paper uses the chain's (m,k) for each segment, enabled by miss
	// propagation).
	Constraint weaklyhard.Constraint
	// Handler is the application exception handler (nil = always
	// propagate).
	Handler Handler
	// HandlerCost models the handler execution time on the monitor thread.
	HandlerCost sim.Dist
}

func (c *SegmentConfig) handlerCost(rng *sim.RNG) sim.Duration {
	if c.HandlerCost == nil {
		return 0
	}
	return c.HandlerCost.Sample(rng)
}

// Propagator receives explicitly propagated violations (remote → local
// propagation uses an error propagation event; local → remote propagation is
// implicit through the omitted publication).
type Propagator interface {
	// PropagateInto informs the next segment that activation n arrived as
	// an unrecoverable violation.
	PropagateInto(activation uint64)
}

// MultiPropagator fans a propagated violation out to several subsequent
// segments (e.g. when two local segments share the same start event, as the
// objects and ground segments of the evaluation do).
type MultiPropagator []Propagator

// PropagateInto implements Propagator.
func (m MultiPropagator) PropagateInto(activation uint64) {
	for _, p := range m {
		p.PropagateInto(activation)
	}
}

// ResolveFunc observes segment resolutions in activation order; chains
// attach these to their final segment.
type ResolveFunc func(Resolution)

// reorderBuf delivers resolutions to a callback in activation order even if
// they are produced slightly out of order (an exception for n can resolve
// after the end event of n+1 was already processed). Activations that never
// resolve at this segment — possible in partially monitored setups where an
// upstream loss is not propagated in — are skipped once the reorder window
// fills, so the stream cannot stall. A skipped activation that resolves
// after all (or one older than the first resolution seen) is delivered at
// once, out of order: every resolution reaches the callback exactly once.
type reorderBuf struct {
	next    uint64
	started bool
	pending map[uint64]Resolution
	sink    func(Resolution)
}

// reorderWindow is how many out-of-order resolutions are buffered before a
// gap is declared permanently missing.
const reorderWindow = 64

func newReorderBuf(sink func(Resolution)) *reorderBuf {
	return &reorderBuf{pending: make(map[uint64]Resolution), sink: sink}
}

func (b *reorderBuf) add(r Resolution) {
	if !b.started {
		// The stream starts at the first activation actually observed
		// (a chain may begin monitoring mid-stream).
		b.next = r.Activation
		b.started = true
	}
	if r.Activation < b.next {
		// Its slot was already passed over; parking it would lose it.
		b.sink(r)
		return
	}
	if r.Activation == b.next {
		// In order: delivered without parking it in the map.
		b.next++
		b.sink(r)
		b.flush()
		return
	}
	b.pending[r.Activation] = r
	b.flush()
	if len(b.pending) > reorderWindow {
		// Skip the gap: advance to the earliest buffered activation.
		min := r.Activation
		for a := range b.pending {
			if a < min {
				min = a
			}
		}
		b.next = min
		b.flush()
	}
}

func (b *reorderBuf) flush() {
	for {
		r, ok := b.pending[b.next]
		if !ok {
			return
		}
		delete(b.pending, b.next)
		b.next++
		b.sink(r)
	}
}
