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

// segment is what a local segment and a remote monitor share: the
// procedure of Algorithms 1 and 2 around a temporal exception, and the
// bookkeeping of its verdicts. Each kind embeds one and keeps only what
// differs: how its events arrive, how it recovers, and how it omits a late
// end event.
type segment struct {
	cfg     SegmentConfig
	counter *weaklyhard.Counter
	stats   *SegmentStats
	tel     *segTel // nil when uninstrumented
	// propagateTo receives error propagation events for unrecovered misses.
	propagateTo Propagator
	onResolve   []ResolveFunc
}

// newSegment validates cfg and defaults its constraint to (0,1). history
// decides whether the stats keep every resolution (see SegmentStats).
func newSegment(cfg SegmentConfig, history bool) segment {
	if cfg.DMon <= 0 {
		panic(fmt.Sprintf("monitor: segment %q needs a positive DMon", cfg.Name))
	}
	if !cfg.Constraint.Valid() {
		cfg.Constraint = weaklyhard.Constraint{M: 0, K: 1}
	}
	return segment{
		cfg:     cfg,
		counter: weaklyhard.NewCounter(cfg.Constraint),
		stats:   newSegmentStats(cfg.Name, history),
	}
}

// Config returns the segment configuration.
func (s *segment) Config() SegmentConfig { return s.cfg }

// Stats returns the segment's measurement collectors. On the wall clock
// they hold only the verdict counts (see SegmentStats).
func (s *segment) Stats() *SegmentStats { return s.stats }

// Counter returns the segment's (m,k) window counter.
func (s *segment) Counter() *weaklyhard.Counter { return s.counter }

// OnResolve registers an observer of in-order activation resolutions. The
// counter and the stats already include the resolution an observer is
// handed.
func (s *segment) OnResolve(fn ResolveFunc) { s.onResolve = append(s.onResolve, fn) }

// PropagateTo sets the target of error propagation events for unrecovered
// misses (Algorithm 1, line 7): the subsequent local segment of a remote
// one, or the onward target of a local segment that ends at a reception,
// where omission-based propagation is unavailable.
func (s *segment) PropagateTo(p Propagator) { s.propagateTo = p }

// deliver is the one verdict sink. An in-order resolution updates the
// (m,k) counter, then the stats, then telemetry, and then reaches the
// observers.
func (s *segment) deliver(r Resolution) {
	s.counter.Record(r.Status == StatusMissed)
	s.stats.record(r)
	if s.tel != nil {
		s.tel.verdict(r)
	}
	for _, fn := range s.onResolve {
		fn(r)
	}
}

// userException is user_exception(m) of Algorithms 1 and 2: the handler
// decides on the temporal exception of act, and a nil Recovery propagates
// it. Without a handler no context is built, so the exception allocates
// nothing.
func (s *segment) userException(act uint64, propagated bool, raisedAt sim.Time) *Recovery {
	if s.cfg.Handler == nil {
		return nil
	}
	return s.cfg.Handler(&ExceptionContext{
		Segment:    s.cfg.Name,
		Activation: act,
		Misses:     s.counter.Misses(),
		Budget:     s.counter.Budget(),
		Propagated: propagated,
		RaisedAt:   raisedAt,
	})
}

// propagate sends the error propagation event of an unrecovered miss to
// the explicit target, if one is set.
func (s *segment) propagate(act uint64) {
	if s.propagateTo != nil {
		s.propagateTo.PropagateInto(act)
	}
}

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
