package monitor

import (
	"chainmon/internal/dds"
	"chainmon/internal/livestats"
	rt "chainmon/internal/runtime"
	"chainmon/internal/runtime/simtime"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

// LocalMonitor supervises the local segments of one ECU. It models the
// paper's implementation (Fig. 4): the instrumented DDS subscriber and
// publisher code posts start and end events into per-segment wait-free ring
// buffers in shared memory; a single monitor thread per ECU, running at the
// highest scheduling priority, is woken through a semaphore on start events,
// drains the buffers in a fixed order, maintains a timeout queue, and raises
// temporal exceptions whose handlers execute on the monitor thread.
//
// The ring-drain/timeout-queue algorithm itself lives in runtime.Core; this
// type adds the verdict bookkeeping (skip propagation, (m,k) accounting,
// Algorithm 2 decisions) and binds the core to a timebase. NewLocalMonitor
// builds it on the deterministic simulation runtime; NewWallclockMonitor
// builds the same logic on the wall-clock runtime (real rings, real
// goroutines — see internal/runtime/walltime).
type LocalMonitor struct {
	ECU    *dds.ECU    // nil on the wall-clock runtime
	Thread *sim.Thread // nil on the wall-clock runtime

	clock rt.Clock
	exec  rt.Executor
	sched rt.Waker
	// armTimer arms a scan at the deadline (simtime kernel timer); nil when
	// the host loop sleeps on Core.NextDeadline instead (walltime).
	armTimer func(deadline rt.Time, fire func()) rt.Timer
	// forceWake is the bound m.sched.ForceWake method value, created once —
	// evaluating it per armed timeout would allocate on every activation.
	forceWake func()
	newRing   func() rt.EventRing

	rng      *sim.RNG
	core     *rt.Core
	segments []*LocalSegment
	// history is what the constructor decides its segments keep: every
	// resolution and the MonLatency sample on the sim, whose runs are
	// finite and whose figures read every activation; only verdict counts
	// on the wall clock, which runs for as long as its host does.
	history bool

	// PostCost is the overhead of posting one event into a ring buffer
	// (start-event / end-event overhead in Fig. 11). Nil on the wall clock,
	// where posting costs are real and the monitor keeps no sample of them.
	PostCost sim.Dist
	// ScanCost is the execution time of one monitor-thread drain pass (sim
	// only; nil on the wall clock).
	ScanCost sim.Dist

	overheads *OverheadStats
	// skipTables holds one window of skipped publications per end
	// publisher, shared by the segments that end there.
	skipTables map[*dds.Publisher]*actWindow

	tel          *monTel        // nil when uninstrumented
	live         *livestats.Set // nil when no live health surface is attached
	lastScanCost sim.Duration

	// budgets are the hot-swappable deadline tables this monitor serves;
	// staged versions are folded in at the top of each scan pass.
	budgets []budgetBinding
}

// The simulated monitor's default cost models. They are package values, so
// a monitor's construction does not box a copy of each into its sim.Dist.
var (
	defaultPostCost sim.Dist = sim.LogNormalDist{
		Median: 15 * sim.Microsecond, Sigma: 0.5,
		Shift: 3 * sim.Microsecond, Max: 100 * sim.Microsecond,
	}
	defaultScanCost sim.Dist = sim.LogNormalDist{
		Median: 20 * sim.Microsecond, Sigma: 0.4,
		Shift: 5 * sim.Microsecond, Max: 150 * sim.Microsecond,
	}
)

// NewLocalMonitor creates the monitor thread of an ECU at the highest
// scheduling priority, on the deterministic simulation runtime.
func NewLocalMonitor(ecu *dds.ECU) *LocalMonitor {
	k := ecu.Proc.Kernel()
	m := &LocalMonitor{
		ECU:        ecu,
		Thread:     ecu.Proc.NewThread(ecu.Name+"/monitor", dds.PrioMonitor),
		clock:      simtime.Clock{K: k},
		rng:        ecu.Proc.RNG().Derive("localmon"),
		PostCost:   defaultPostCost,
		ScanCost:   defaultScanCost,
		core:       rt.NewCore(),
		history:    true,
		overheads:  NewOverheadStats(),
		skipTables: make(map[*dds.Publisher]*actWindow),
		newRing:    func() rt.EventRing { return &rt.SliceRing{} },
	}
	m.exec = simtime.NewExecutor(m.Thread)
	sc := &simScheduler{m: m}
	sc.scanFn = sc.runScan
	m.sched = sc
	m.forceWake = sc.ForceWake
	timers := simtime.TimerHost{K: k}
	m.armTimer = func(deadline rt.Time, fire func()) rt.Timer {
		return timers.At(deadline, dds.PrioMonitor, fire)
	}
	return m
}

// NewWallclockMonitor runs the same local-monitor logic on a wall-clock
// runtime: waker is the monitor semaphore, newRing supplies the per-segment
// SPSC rings, and exception handlers run inline on the goroutine that calls
// ScanNow (the walltime.Loop). There are no per-activation timers — the
// host loop sleeps until Core().NextDeadline().
//
// Concurrency contract: StartInjected/EndInjected must come from a single
// producer goroutine per segment; ScanNow and PropagateInto belong to the
// monitor goroutine. PostCost and ScanCost stay nil: on a real clock the
// costs are real, and the producer path must not write monitor-wide state
// (the caller times the posts and scans it wants to measure). Telemetry
// attached to it keeps producer-side posts on per-segment tracks, so the
// recorder's single-writer contract holds.
//
// The core judges end events by their timestamps (rt.Core.LateEndsMiss):
// an end stamped past its deadline is a miss even when the host loop wakes
// late and drains it before the timeout fires.
//
// A wall-clock monitor keeps no per-activation history: its segments' stats
// keep verdict counts only, and a drain latency reaches only the segments'
// OnDrain observers. A caller that wants every activation registers
// OnResolve and OnDrain observers.
func NewWallclockMonitor(clock rt.Clock, waker rt.Waker, newRing func() rt.EventRing, seed int64) *LocalMonitor {
	core := rt.NewCore()
	core.LateEndsMiss = true
	m := &LocalMonitor{
		clock:      clock,
		rng:        sim.NewRNG(seed).Derive("localmon"),
		core:       core,
		overheads:  NewOverheadStats(),
		skipTables: make(map[*dds.Publisher]*actWindow),
		newRing:    newRing,
		sched:      waker,
	}
	m.exec = inlineExecutor{clock: clock}
	return m
}

// Overheads returns the Fig. 11 overhead collectors of this monitor. On the
// wall clock all four stay empty: drain latencies go to the segments'
// OnDrain observers instead.
func (m *LocalMonitor) Overheads() *OverheadStats { return m.overheads }

// Segments returns the registered segments in their fixed processing order.
func (m *LocalMonitor) Segments() []*LocalSegment { return m.segments }

// Core exposes the shared monitor core (the wall-clock loop sleeps on its
// NextDeadline).
func (m *LocalMonitor) Core() *rt.Core { return m.core }

// ScanNow runs one monitor pass at the current clock time. The wall-clock
// loop calls it after a semaphore wake or deadline sleep; on the simulation
// runtime scans are scheduled through the wake path instead.
func (m *LocalMonitor) ScanNow() { m.scan() }

// scanScheduler is the simtime rt.Waker: it queues scan passes on the
// simulated monitor thread with a sampled scan cost, coalescing wakes while
// one pass is outstanding.
type simScheduler struct {
	m      *LocalMonitor
	queued bool
	// scanFn is the bound runScan method value, created once so queueing a
	// scan does not allocate a closure per pass.
	scanFn func()
}

// Wake raises the monitor semaphore: one scan pass is queued on the monitor
// thread unless one is already outstanding.
func (sc *simScheduler) Wake() {
	if sc.queued {
		return
	}
	sc.queued = true
	sc.queue()
}

// ForceWake queues a scan unconditionally; timeout timers use it so that a
// scan that is already queued but might run before the deadline cannot
// swallow the timeout.
func (sc *simScheduler) ForceWake() {
	sc.queued = true
	sc.queue()
}

func (sc *simScheduler) queue() {
	m := sc.m
	cost := m.ScanCost.Sample(m.rng)
	m.overheads.MonExec.AddDuration(cost)
	if m.tel != nil {
		m.lastScanCost = cost
	}
	m.Thread.Enqueue("monitor/scan", cost, sc.scanFn)
}

func (sc *simScheduler) runScan() {
	sc.queued = false
	sc.m.scan()
}

// inlineExecutor runs handler work immediately on the calling goroutine —
// on the wall-clock runtime that is the monitor goroutine itself, matching
// the paper's "handlers execute on the monitor thread".
type inlineExecutor struct{ clock rt.Clock }

func (e inlineExecutor) Exec(_ string, _ rt.Duration, fn func(rt.Time))       { fn(e.clock.Now()) }
func (e inlineExecutor) ExecDirect(_ string, _ rt.Duration, fn func(rt.Time)) { fn(e.clock.Now()) }

// LocalSegment is one monitored local segment: it starts with a receive
// event and ends with a publication event — or, as in the evaluation's rviz
// setup, with a reception — on the same ECU. A segment may span several
// processes.
type LocalSegment struct {
	segment
	mon  *LocalMonitor
	core *rt.Segment

	// excepted and resolved mark the activations an exception or a verdict
	// has claimed, over the last windowSize activations each.
	excepted actWindow
	resolved actWindow

	reorder *reorderBuf

	// endPub is the publisher whose publication is this segment's end
	// event; used for recovery publication and skip-next propagation.
	// Nil when the segment ends at a reception.
	endPub *dds.Publisher
	// excLabel names the segment's exception-handler work ("exc/<name>"),
	// built once so raising an exception does not concatenate it.
	excLabel string
	// freeExc recycles dispatched exception records (monitor thread only).
	freeExc *raisedException
	// dropped counts posts a full ring rejected; producer-owned.
	dropped int
	onDrain []DrainFunc
	// drainObs backs onDrain's first two observers (the sim's MonLatency
	// sample and a live sketch), so registering them allocates nothing.
	drainObs [2]DrainFunc
}

// DrainFunc observes the post → drained latency of one start event, on the
// monitor's scan thread.
type DrainFunc func(lat rt.Duration)

// AddSegment registers a local segment. Registration order is the fixed
// order in which the monitor thread processes the per-segment buffers — the
// source of the Fig. 10 asymmetry between the objects and ground segments.
func (m *LocalMonitor) AddSegment(cfg SegmentConfig) *LocalSegment {
	s := &LocalSegment{
		segment:  newSegment(cfg, m.history),
		mon:      m,
		excLabel: "exc/" + cfg.Name,
	}
	s.onDrain = s.drainObs[:0]
	s.reorder = newReorderBuf(s.deliver)
	s.core = m.core.AddSegment(s.cfg.Name, s.cfg.DMon, m.newRing(), m.newRing(), rt.SegmentHooks{
		DrainLatency: func(lat rt.Duration) {
			for _, fn := range s.onDrain {
				fn(lat)
			}
		},
		SkipArm: func(act uint64) bool {
			return s.resolved.has(act) || s.excepted.has(act)
		},
		Arm: func(start rt.Event, deadline, now rt.Time) rt.Timer {
			if s.tel != nil {
				// A wall-clock scan reads now before it drains: a start
				// posted in between is stamped later than now, and its arm
				// must not sort before it.
				s.tel.track.Append(telemetry.Event{
					TS: int64(max(now, start.TS)), Act: start.Act, Arg: int64(deadline),
					Flow: start.Flow,
					Kind: telemetry.KindTimeoutArm, Label: s.tel.label,
				})
			}
			if m.armTimer != nil && deadline > now {
				return m.armTimer(deadline, m.forceWake)
			}
			return rt.Timer{}
		},
		OK: func(start rt.Event, end rt.Time) {
			s.resolve(Resolution{
				Activation: start.Act,
				Status:     StatusOK,
				Start:      sim.Time(start.TS),
				End:        sim.Time(end),
				Latency:    end.Sub(start.TS),
			})
		},
		Expire: func(start rt.Event, deadline, now rt.Time) {
			s.excepted.add(start.Act)
			if s.tel != nil {
				s.tel.track.Append(telemetry.Event{
					TS: int64(now), Act: start.Act,
					Flow: start.Flow,
					Kind: telemetry.KindTimeoutFire, Label: s.tel.label,
				})
			}
			s.raiseException(start.Act, sim.Time(start.TS), sim.Time(deadline), false)
		},
	})
	if m.history {
		s.OnDrain(m.overheads.MonLatency.AddDuration)
	}
	if m.tel != nil {
		m.instrument(s)
	}
	if m.live != nil {
		s.attachLive(m.live)
	}
	m.segments = append(m.segments, s)
	return s
}

// Dropped returns how many start and end events a full ring rejected. A
// dropped start leaves its activation without a verdict; a dropped end turns
// it into a miss. Read it from the producer goroutine or after the producer
// has finished.
func (s *LocalSegment) Dropped() int { return s.dropped }

// OnDrain registers an observer of the segment's ring-drain latencies: one
// call per start event, when the monitor's scan drains it. It is the
// drain-side counterpart of OnResolve; the sim's MonLatency sample and the
// live drain sketch are fed through it too.
func (s *LocalSegment) OnDrain(fn DrainFunc) { s.onDrain = append(s.onDrain, fn) }

// StartOnDeliver makes receptions of the subscription this segment's start
// events: the instrumented DDS subscriber posts the timestamp into the ring
// buffer and raises the monitor's semaphore.
func (s *LocalSegment) StartOnDeliver(sub *dds.Subscription) {
	sub.OnDeliver = append(sub.OnDeliver, func(smp *dds.Sample) bool {
		s.postStart(smp.Activation)
		return true
	})
}

// StartInjected posts a start event directly (used by recovery paths that
// issue substitute receive events, and by wall-clock scenario drivers).
func (s *LocalSegment) StartInjected(act uint64) { s.postStart(act) }

// EndInjected posts an end event directly (the wall-clock counterpart of an
// instrumented publication).
func (s *LocalSegment) EndInjected(act uint64) { s.postEnd(act) }

// EndOnPublish makes publications of the publisher this segment's end
// events, and installs the skip-next-publication veto used for propagation.
func (s *LocalSegment) EndOnPublish(pub *dds.Publisher) {
	s.endPub = pub
	s.mon.ensureSkipVeto(pub)
	pub.OnPublish = append(pub.OnPublish, func(smp *dds.Sample) {
		s.postEnd(smp.Activation)
	})
}

// EndOnDeliver makes receptions at the subscription this segment's end
// events (the evaluation's segments end at receptions inside rviz, which
// publishes nothing).
func (s *LocalSegment) EndOnDeliver(sub *dds.Subscription) {
	sub.OnDeliver = append(sub.OnDeliver, func(smp *dds.Sample) bool {
		if s.excepted.has(smp.Activation) {
			// The exception already resolved this activation; the late
			// end event and its receive action are discarded.
			return false
		}
		s.postEnd(smp.Activation)
		return true
	})
}

// ensureSkipVeto installs the publisher-side evaluation of the shared skip
// counter exactly once per publisher (several segments may share an end
// publication).
func (m *LocalMonitor) ensureSkipVeto(pub *dds.Publisher) {
	if _, ok := m.skipTables[pub]; ok {
		return
	}
	table := new(actWindow)
	m.skipTables[pub] = table
	pub.PrePublish = append(pub.PrePublish, func(smp *dds.Sample) bool {
		if table.has(smp.Activation) {
			table.del(smp.Activation)
			return false
		}
		return true
	})
}

// markSkip arranges for the (late) publication of the activation to be
// omitted.
func (m *LocalMonitor) markSkip(pub *dds.Publisher, act uint64) {
	if pub == nil {
		return
	}
	m.skipTables[pub].add(act)
}

// postStart models the instrumented subscriber: post into the start ring,
// record the modelled posting overhead (sim only), and raise the monitor
// semaphore.
func (s *LocalSegment) postStart(act uint64) {
	if s.mon.PostCost != nil {
		s.mon.overheads.StartPost.AddDuration(s.mon.PostCost.Sample(s.mon.rng))
	}
	s.post(s.core.StartRing(), telemetry.KindRingPostStart, act)
	s.mon.wake()
}

// postEnd models the instrumented publisher: post into the end ring without
// waking the monitor (processing end events is not time critical, saving a
// context switch).
func (s *LocalSegment) postEnd(act uint64) {
	if s.mon.PostCost != nil {
		s.mon.overheads.EndPost.AddDuration(s.mon.PostCost.Sample(s.mon.rng))
	}
	s.post(s.core.EndRing(), telemetry.KindRingPostEnd, act)
}

// post timestamps one event into ring and records it on the producer track
// as kind, or as a ring-drop when the full ring rejected it.
func (s *LocalSegment) post(ring rt.EventRing, kind telemetry.Kind, act uint64) {
	now := s.mon.clock.Now()
	var flow uint32
	if s.tel != nil {
		flow = s.tel.flow(act)
	}
	if !ring.Post(rt.Event{Act: act, TS: now, Flow: flow}) {
		s.dropped++
		kind = telemetry.KindRingDrop
	}
	if s.tel != nil {
		s.tel.posts.Append(telemetry.Event{
			TS: int64(now), Act: act, Arg: int64(ring.Len()),
			Flow: flow, Kind: kind, Label: s.tel.label,
		})
	}
}

// wake raises the monitor semaphore.
func (m *LocalMonitor) wake() { m.sched.Wake() }

// scan is one monitor-thread pass, delegated to the shared core: drain all
// rings in the fixed segment order, arm timeouts for new start events,
// resolve completed activations, and fire due temporal exceptions.
func (m *LocalMonitor) scan() {
	now := m.clock.Now()
	if len(m.budgets) != 0 {
		m.applyBudgets(now)
	}
	m.core.Scan(now)
	if m.tel != nil {
		m.tel.scans.Inc()
		depth := m.core.PendingTimeouts()
		m.tel.depth.Set(int64(depth))
		m.tel.track.Append(telemetry.Event{
			TS: int64(now), Arg: int64(m.lastScanCost), Kind: telemetry.KindScan,
		})
		m.tel.track.Append(telemetry.Event{
			TS: int64(now), Arg: int64(depth), Kind: telemetry.KindTimeoutQueue,
		})
	}
}

// raiseException dispatches the exception handling onto the monitor's
// execution context (highest priority, bounded cost) and performs the
// Algorithm 2 decision at handler completion.
func (s *LocalSegment) raiseException(act uint64, start, deadline sim.Time, propagated bool) {
	m := s.mon
	e := s.freeExc
	if e == nil {
		e = &raisedException{s: s}
		e.run = e.handle
	} else {
		s.freeExc = e.next
		e.next = nil
	}
	e.act, e.start, e.deadline, e.propagated = act, start, deadline, propagated
	e.raisedAt = sim.Time(m.clock.Now())
	cost := s.cfg.handlerCost(m.rng)
	// The monitor thread dispatches the handler to itself (no wakeup):
	// handlers of simultaneous exceptions run back to back in the fixed
	// segment order.
	m.exec.ExecDirect(s.excLabel, cost, e.run)
}

// raisedException is one dispatched exception handling. Records recycle
// through their segment's freelist and run is the bound handle method
// value, created once, so raising an exception allocates no closure: on
// the wall clock the allocation count then does not depend on how many
// activations miss.
type raisedException struct {
	s                         *LocalSegment
	act                       uint64
	start, deadline, raisedAt sim.Time
	propagated                bool
	run                       func(started rt.Time)
	next                      *raisedException
}

// handle is the exception handling at handler completion. The record goes
// back on the freelist before the handling runs, which may raise further
// exceptions.
func (e *raisedException) handle(started rt.Time) {
	s, act, start, deadline := e.s, e.act, e.start, e.deadline
	propagated, raisedAt := e.propagated, e.raisedAt
	e.next = s.freeExc
	s.freeExc = e
	now := sim.Time(s.mon.clock.Now())
	entry := sim.Time(started)
	rec := s.userException(act, propagated, raisedAt)
	r := Resolution{
		Activation:   act,
		Start:        start,
		End:          now,
		Exception:    true,
		HandlerEntry: entry,
		HandlerDone:  now,
	}
	if start != 0 {
		r.Latency = now.Sub(start)
	}
	if !propagated {
		r.DetectionLatency = entry.Sub(deadline)
	}
	if rec != nil {
		// Recovery (Algorithm 2, line 4): publish the recovered data
		// as a regular middleware message; the late regular
		// publication is skipped.
		r.Status = StatusRecovered
		if s.endPub != nil {
			s.endPub.PublishBypass(act, rec.Data, rec.Size)
			if !propagated {
				s.mon.markSkip(s.endPub, act)
			}
		}
	} else {
		// Propagation (Algorithm 2, line 7): omit the late
		// publication; the subsequent remote segment detects the
		// missing publication by timeout.
		r.Status = StatusMissed
		if !propagated {
			s.mon.markSkip(s.endPub, act)
		}
		s.propagate(act)
	}
	if s.tel != nil {
		s.tel.handlerDone(act, entry, now, rec != nil)
	}
	s.resolve(r)
}

// PropagateInto implements Propagator: an unrecoverable violation of the
// preceding (remote) segment arrives as an error propagation event instead
// of a start event. The exception handling is invoked directly.
func (s *LocalSegment) PropagateInto(act uint64) {
	if s.resolved.has(act) || s.excepted.has(act) {
		return
	}
	s.excepted.add(act)
	s.raiseException(act, 0, 0, true)
}

func (s *LocalSegment) resolve(r Resolution) {
	if s.resolved.has(r.Activation) {
		return
	}
	// The excepted marker is kept after resolution so that late end events
	// (and their receive actions, for EndOnDeliver segments) are discarded.
	s.resolved.add(r.Activation)
	s.reorder.add(r)
}
