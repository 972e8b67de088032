package runtime

import (
	"cmp"
	"slices"
)

// SegmentHooks customizes one Segment of a Core without the Core knowing
// anything about verdict bookkeeping, telemetry or the timebase. All hooks
// are optional (nil disables them) and run synchronously inside Scan, on the
// monitor's execution context.
type SegmentHooks struct {
	// DrainLatency observes the post → processed latency of every start
	// event, before SkipArm can discard it (Fig. 11 "monitor latency").
	DrainLatency func(lat Duration)
	// SkipArm vetoes arming a timeout for the activation. The local monitor
	// uses it to drop start events of activations that were already handled
	// (propagated-in exceptions).
	SkipArm func(act uint64) bool
	// Arm is invoked when a timeout was armed for the activation; start is
	// the start event as posted (activation, post timestamp, flow id). It
	// may return a Timer whose expiry guarantees a scan pass at the deadline
	// (the simtime path arms a kernel timer; walltime returns the zero
	// Timer because its loop already sleeps until NextDeadline). Timers are
	// cancelled when the activation completes in time, possibly after they
	// fired.
	Arm func(start Event, deadline, now Time) Timer
	// OK is invoked when the end event arrived within the deadline; start
	// is the original start event, end the end-event timestamp.
	OK func(start Event, end Time)
	// Expire is invoked when the deadline passed without an end event — the
	// temporal exception of the paper. start is the original start event.
	Expire func(start Event, deadline, now Time)
}

// pendingTimeout is one armed activation of a segment. start retains the
// full start event so the expiry/completion hooks see its flow identity.
// Resolved timeouts are recycled through a Core-level freelist (next), so
// steady-state arming does not allocate.
type pendingTimeout struct {
	start    Event
	deadline Time
	timer    Timer
	next     *pendingTimeout
}

// Segment is one monitored local segment inside a Core: a start ring, an
// end ring and a monitored deadline.
type Segment struct {
	Name string
	DMon Duration

	index     int // registration order, the order due timeouts fire in
	start     EventRing
	end       EventRing
	hooks     SegmentHooks
	pending   map[uint64]*pendingTimeout
	dupStarts uint64 // starts ignored while their activation was pending
}

// StartRing returns the ring the instrumented subscriber posts into.
func (s *Segment) StartRing() EventRing { return s.start }

// EndRing returns the ring the instrumented publisher posts into.
func (s *Segment) EndRing() EventRing { return s.end }

// Pending returns the number of armed timeouts of this segment.
func (s *Segment) Pending() int { return len(s.pending) }

// DuplicateStarts returns how many start events the segment ignored because
// their activation was still pending. Like Pending, read it on the scan thread.
func (s *Segment) DuplicateStarts() uint64 { return s.dupStarts }

// Core is the timebase-independent monitor algorithm of the paper (Fig. 4):
// per-segment start/end rings drained in fixed registration order, a
// timeout queue, and temporal exceptions for activations whose end event
// did not arrive within the monitored deadline.
//
// The Core is not a goroutine or a thread — it is driven by its host:
// the simtime LocalMonitor calls Scan from a kernel work item, the
// walltime loop calls it after a semaphore wake or deadline sleep. Scan
// takes the current time as an argument so the Core itself never reads a
// clock; that property is what lets one implementation serve both a
// deterministic simulation and a wall-clock run.
type Core struct {
	segments []*Segment
	deadline deadlineHeap

	// freePending recycles resolved timeout records; batch and due are drain
	// scratch, reused across Scan calls. Segment hooks never re-enter Scan
	// (they observe, arm timers or dispatch handler work items — all
	// deferred), so the scratch cannot be aliased mid-drain.
	freePending *pendingTimeout
	batch       []Event
	due         []deadlineEntry

	// LateEndsMiss judges an end event by its timestamp: an end stamped
	// after its activation's armed deadline is discarded like any late end,
	// and the still-armed activation expires in this pass (or the next, if
	// the end was posted after now was read). NewWallclockMonitor sets it,
	// so a loop that oversleeps a deadline delays the exception but cannot
	// turn it into an OK. The simtime host leaves it off: there the monitor
	// thread's modelled wake-up latency, and the late ends it lets through,
	// are part of what the experiments reproduce.
	LateEndsMiss bool
}

// drainBatch is the per-call batch size of ring drains: one PopBatch moves
// up to this many events, amortizing the interface call across a burst.
const drainBatch = 128

func (c *Core) newPending() *pendingTimeout {
	p := c.freePending
	if p == nil {
		return &pendingTimeout{}
	}
	c.freePending = p.next
	p.next = nil
	return p
}

func (c *Core) releasePending(p *pendingTimeout) {
	p.start = Event{}
	p.timer = Timer{}
	p.next = c.freePending
	c.freePending = p
}

// NewCore creates an empty monitor core.
func NewCore() *Core { return &Core{} }

// AddSegment registers a segment. Registration order is the fixed order in
// which Scan processes the per-segment rings — the source of the Fig. 10
// asymmetry between the objects and ground segments.
func (c *Core) AddSegment(name string, dMon Duration, start, end EventRing, hooks SegmentHooks) *Segment {
	s := &Segment{
		Name:    name,
		DMon:    dMon,
		index:   len(c.segments),
		start:   start,
		end:     end,
		hooks:   hooks,
		pending: make(map[uint64]*pendingTimeout),
	}
	c.segments = append(c.segments, s)
	return s
}

// Segments returns the registered segments in their fixed processing order.
func (c *Core) Segments() []*Segment { return c.segments }

// PendingTimeouts returns the total number of armed timeouts.
func (c *Core) PendingTimeouts() int {
	n := 0
	for _, s := range c.segments {
		n += len(s.pending)
	}
	return n
}

// Scan is one monitor pass: drain all rings in the fixed segment order,
// arm timeouts for new start events, resolve completed activations, then
// fire due temporal exceptions (again in fixed segment order, by
// activation within a segment).
func (c *Core) Scan(now Time) {
	for _, s := range c.segments {
		c.drain(s, now)
	}
	c.fireDue(now)
	// Prune stale heap tops (activations that completed or fired) so the
	// lazy-deletion heap stays bounded by the live pending set instead of
	// growing with the total activation count. The simtime path never calls
	// NextDeadline, so this is its only pruning point.
	for len(c.deadline.entries) > 0 {
		e := c.deadline.entries[0]
		if p, ok := e.seg.pending[e.act]; ok && p.deadline == e.at {
			break
		}
		c.deadline.pop()
	}
}

// drain empties the segment's start ring, then takes the end events that
// were already posted when the drain began. Every one of those ends has
// its start posted before it, so the start drain has armed it. An end
// posted later — possibly together with its start, after the start drain
// finished — stays in the ring for the next pass; taking it now would find
// no armed timeout, discard it, and turn the on-time activation into a
// false miss. Nothing is posted during a simtime drain, so there the
// snapshot is the whole ring.
func (c *Core) drain(s *Segment, now Time) {
	if c.batch == nil {
		c.batch = make([]Event, drainBatch)
	}
	ends := s.end.Len()
	for {
		n := s.start.PopBatch(c.batch)
		if n == 0 {
			break
		}
		for _, ev := range c.batch[:n] {
			if s.hooks.DrainLatency != nil {
				s.hooks.DrainLatency(now.Sub(ev.TS))
			}
			if s.hooks.SkipArm != nil && s.hooks.SkipArm(ev.Act) {
				continue // propagated-in activation that was already handled
			}
			if _, armed := s.pending[ev.Act]; armed {
				// A start posted twice: the armed timeout keeps its deadline,
				// its timer and its heap entry.
				s.dupStarts++
				continue
			}
			p := c.newPending()
			p.start = ev
			p.deadline = ev.TS.Add(s.DMon)
			s.pending[ev.Act] = p
			c.deadline.push(deadlineEntry{at: p.deadline, seg: s, act: ev.Act})
			if s.hooks.Arm != nil {
				p.timer = s.hooks.Arm(p.start, p.deadline, now)
			}
			// Deadlines already in the past are picked up by fireDue below.
		}
	}
	for ends > 0 {
		n := s.end.PopBatch(c.batch[:min(ends, len(c.batch))])
		if n == 0 {
			break
		}
		ends -= n
		for _, ev := range c.batch[:n] {
			p, armed := s.pending[ev.Act]
			if !armed || (c.LateEndsMiss && ev.TS > p.deadline) {
				// End events for excepted activations are discarded; end events
				// without a start cannot occur (causality).
				continue
			}
			// The timer may have fired already (an end drained by the pass
			// its ForceWake queued); its handle is stale then, and Cancel
			// leaves alone whatever the timebase armed in its slot since.
			p.timer.Cancel()
			delete(s.pending, ev.Act)
			if s.hooks.OK != nil {
				s.hooks.OK(p.start, ev.TS)
			}
			c.releasePending(p)
		}
	}
}

// fireDue raises temporal exceptions for all armed activations whose
// monitored deadline has passed without an end event. Every armed deadline
// has a heap entry, so popping the due entries finds them all in
// O(due · log pending), skipping stale ones (activations that completed in
// time). They fire in fixed segment order, by activation within a
// segment. Their scan timers are left to expire: a stale ForceWake causes
// one extra empty pass, which is harmless and mirrors the paper's semaphore
// semantics.
func (c *Core) fireDue(now Time) {
	due := c.due[:0]
	for len(c.deadline.entries) > 0 && c.deadline.entries[0].at <= now {
		e := c.deadline.entries[0]
		c.deadline.pop()
		if p, ok := e.seg.pending[e.act]; ok && p.deadline == e.at {
			if due == nil {
				// Room for one due timeout per segment before growing.
				due = make([]deadlineEntry, 0, len(c.segments))
			}
			due = append(due, e)
		}
	}
	sortDue(due)
	for _, e := range due {
		// An activation re-armed after it resolved, at the same deadline,
		// also matches its stale heap entry: only the first of the two fires.
		p, ok := e.seg.pending[e.act]
		if !ok {
			continue
		}
		delete(e.seg.pending, e.act)
		if e.seg.hooks.Expire != nil {
			e.seg.hooks.Expire(p.start, p.deadline, now)
		}
		c.releasePending(p)
	}
	c.due = due[:0]
}

// sortDue orders timeouts by segment registration order, then activation:
// the deterministic order verdicts are raised in.
func sortDue(due []deadlineEntry) {
	slices.SortFunc(due, func(a, b deadlineEntry) int {
		if c := cmp.Compare(a.seg.index, b.seg.index); c != 0 {
			return c
		}
		return cmp.Compare(a.act, b.act)
	})
}

// SetDeadline hot-swaps the segment's monitored deadline. It must run on
// the scan thread (the same execution context that calls Scan), which is
// what makes it lock-free: subsequent drains latch the new deadline into
// their pending timeouts, so the swap is a natural barrier — in-flight
// activations keep the deadline they were armed with, on shrink and growth
// alike, so neither the pending timeouts nor the deadline heap change.
func (c *Core) SetDeadline(s *Segment, d Duration) { s.DMon = d }

// NextDeadline returns the earliest armed deadline, dropping stale heap
// entries of activations that completed or already fired. The walltime
// loop sleeps until this time (sem_timedwait in the paper); the simtime
// path does not need it because every armed timeout carries a kernel
// timer.
func (c *Core) NextDeadline() (Time, bool) {
	for len(c.deadline.entries) > 0 {
		e := c.deadline.entries[0]
		if p, ok := e.seg.pending[e.act]; ok && p.deadline == e.at {
			return e.at, true
		}
		c.deadline.pop()
	}
	return 0, false
}

// deadlineEntry is one (deadline, segment, activation) record of the lazy
// timeout heap.
type deadlineEntry struct {
	at  Time
	seg *Segment
	act uint64
}

// deadlineHeap is a hand-rolled min-heap on deadlineEntry.at. container/heap
// would box every pushed entry into an interface value — one allocation per
// armed timeout — so the two operations the Core needs are written out.
// Entries with equal deadlines pop in heap-layout order, and fireDue sorts
// what it pops, so heap-layout details are not part of the deterministic
// surface.
type deadlineHeap struct {
	entries []deadlineEntry
}

func (h *deadlineHeap) push(e deadlineEntry) {
	h.entries = append(h.entries, e)
	i := len(h.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.entries[parent].at <= h.entries[i].at {
			break
		}
		h.entries[parent], h.entries[i] = h.entries[i], h.entries[parent]
		i = parent
	}
}

func (h *deadlineHeap) pop() {
	n := len(h.entries) - 1
	h.entries[0] = h.entries[n]
	h.entries[n] = deadlineEntry{}
	h.entries = h.entries[:n]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && h.entries[l].at < h.entries[small].at {
			small = l
		}
		if r := 2*i + 2; r < n && h.entries[r].at < h.entries[small].at {
			small = r
		}
		if small == i {
			return
		}
		h.entries[i], h.entries[small] = h.entries[small], h.entries[i]
		i = small
	}
}
