package monitor

import (
	"fmt"

	"chainmon/internal/dds"
	rt "chainmon/internal/runtime"
	"chainmon/internal/runtime/simtime"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

// RemoteVariant selects where the remote monitor's timeout routine runs.
type RemoteVariant int

const (
	// VariantMonitorThread forwards timer programming and timeout handling
	// to the ECU's high-priority monitor thread — the design the paper
	// proposes after the Fig. 12 measurement.
	VariantMonitorThread RemoteVariant = iota
	// VariantDDSContext runs the timeout routine in the middleware thread,
	// like the existing ROS2 deadline/lifespan QoS mechanisms. Under load
	// its exception entry latency grows to milliseconds (Fig. 12).
	VariantDDSContext
)

func (v RemoteVariant) String() string {
	if v == VariantDDSContext {
		return "dds-context"
	}
	return "monitor-thread"
}

// RemoteMonitor supervises one remote segment with the paper's
// synchronization-based approach: the timer for the reception of the next
// sample is programmed from the transmitted source timestamp of the
// PTP-synchronized sender, t = t_st,n + P + d_mon, so that — unlike
// inter-arrival monitoring — consecutive deadline misses are detected and
// the pessimism is bounded by J^a + ε.
//
// The monitor is instantiated at the receiver, directly at the DDS
// subscriber. Samples that arrive after their exception are discarded to
// keep the constant-rate assumption needed for chain composability and
// reliable (m,k) accounting. Verdicts reach the segment's sink in
// activation order without a reorder buffer: each one is for the expected
// activation, and the expectation then advances by one.
//
// Like the local monitor it is compiled against the runtime abstraction —
// clock reads, timer programming and timeout dispatch go through
// runtime.Clock, runtime.TimerHost, runtime.SyncClock and runtime.Executor;
// the simulation experiments bind the simtime adapters.
type RemoteMonitor struct {
	segment
	variant RemoteVariant
	sub     *dds.Subscription
	rng     *sim.RNG

	clock  rt.Clock     // local-ECU time
	timers rt.TimerHost // deadline timer programming
	sync   rt.SyncClock // sender-deadline → local-delay conversion
	exec   rt.Executor  // timeout-routine dispatch (variant's thread)

	// TimeoutRoutineCost is the execution cost of the timeout routine
	// before the handler decision runs.
	TimeoutRoutineCost sim.Dist

	started       bool
	expected      uint64
	deadlineLocal sim.Time // local-clock deadline for the expected activation
	timer         rt.Timer
	// armedAct is the activation the live timer guards. armTimer cancels
	// the previous timer before arming the next, so one field serves, and
	// the timer fires the pre-bound timeoutFn instead of a fresh closure.
	armedAct  uint64
	timeoutFn func()
	// freeTimeout recycles dispatched timeout routines.
	freeTimeout *remoteTimeout
	// timeoutLabel names the timeout-routine work, built once.
	timeoutLabel string
	writer       string // the writer this monitor supervises (from samples)

	lateDiscards uint64
	stopped      bool
	lastAct      uint64
	lastActSet   bool

	// programs and discards count timer programmings and late discards
	// beside the segment's probe (nil when uninstrumented).
	programs, discards *telemetry.Counter

	// budget is the hot-swappable deadline table (nil = static deadlines);
	// staged versions are folded in before the next deadline is derived.
	budget     *BudgetTable
	budgetSeen uint64
	budgetName string // table identity; family template name for keyed monitors
}

// NewRemoteMonitor attaches a synchronization-based monitor to the
// subscription. With VariantMonitorThread the timeout handling runs on the
// given LocalMonitor's thread; with VariantDDSContext it runs on the
// subscribing node's middleware thread and lm may be nil.
//
// The monitor's delivery hook is prepended so that late-sample discard
// happens before any downstream segment hooks observe the reception.
func NewRemoteMonitor(sub *dds.Subscription, cfg SegmentConfig, variant RemoteVariant, lm *LocalMonitor) *RemoteMonitor {
	m := newDetachedRemoteMonitor(sub, cfg, variant, lm)
	sub.OnDeliver = append([]func(*dds.Sample) bool{m.onDeliver}, sub.OnDeliver...)
	return m
}

// newDetachedRemoteMonitor builds a monitor without installing its delivery
// hook; KeyedRemoteMonitor feeds detached instances per topic key.
func newDetachedRemoteMonitor(sub *dds.Subscription, cfg SegmentConfig, variant RemoteVariant, lm *LocalMonitor) *RemoteMonitor {
	if cfg.Period <= 0 {
		panic(fmt.Sprintf("monitor: remote segment %q needs a positive Period", cfg.Name))
	}
	ecu := sub.Node().ECU
	k := ecu.Proc.Kernel()
	m := &RemoteMonitor{
		segment: newSegment(cfg, true),
		variant: variant,
		sub:     sub,
		rng:     ecu.Proc.RNG().Derive("remotemon/" + cfg.Name),
		clock:   simtime.Clock{K: k},
		timers:  simtime.TimerHost{K: k},
		sync:    simtime.SyncClock{C: ecu.Clock},
		TimeoutRoutineCost: sim.LogNormalDist{
			Median: 10 * sim.Microsecond, Sigma: 0.4,
			Shift: 2 * sim.Microsecond, Max: 100 * sim.Microsecond,
		},
		timeoutLabel: "rtimeout/" + cfg.Name,
	}
	m.timeoutFn = m.onTimeout
	switch variant {
	case VariantMonitorThread:
		if lm == nil {
			panic("monitor: VariantMonitorThread needs a LocalMonitor")
		}
		m.exec = simtime.NewExecutor(lm.Thread)
	case VariantDDSContext:
		m.exec = simtime.NewExecutor(sub.Node().Middleware)
	}
	return m
}

// KeyedRemoteMonitor supervises a topic with multiple communication
// partners: one synchronization-based monitor per observed writer (DDS
// topic key), instantiated lazily on the first sample of each key
// (§IV-B.2 of the paper).
type KeyedRemoteMonitor struct {
	sub     *dds.Subscription
	cfg     SegmentConfig
	variant RemoteVariant
	lm      *LocalMonitor

	monitors map[string]*RemoteMonitor
	order    []string
	onCreate func(writer string, m *RemoteMonitor)
	sink     *telemetry.Sink // nil when uninstrumented
	budget   *BudgetTable    // nil = static deadlines
}

// NewKeyedRemoteMonitor attaches a per-writer monitor family to the
// subscription. cfg is the template configuration applied to every writer's
// monitor (the name is suffixed with the writer key). onCreate, if not nil,
// is invoked for each newly instantiated monitor so callers can wire
// propagation targets and observers per key.
func NewKeyedRemoteMonitor(sub *dds.Subscription, cfg SegmentConfig, variant RemoteVariant, lm *LocalMonitor, onCreate func(writer string, m *RemoteMonitor)) *KeyedRemoteMonitor {
	if cfg.DMon <= 0 || cfg.Period <= 0 {
		panic(fmt.Sprintf("monitor: keyed remote segment %q needs positive DMon and Period", cfg.Name))
	}
	km := &KeyedRemoteMonitor{
		sub: sub, cfg: cfg, variant: variant, lm: lm,
		monitors: make(map[string]*RemoteMonitor),
		onCreate: onCreate,
	}
	sub.OnDeliver = append([]func(*dds.Sample) bool{km.onDeliver}, sub.OnDeliver...)
	return km
}

func (km *KeyedRemoteMonitor) onDeliver(s *dds.Sample) bool {
	if s.Recovered {
		return true
	}
	m, ok := km.monitors[s.Writer]
	if !ok {
		cfg := km.cfg
		cfg.Name = cfg.Name + "@" + s.Writer
		m = newDetachedRemoteMonitor(km.sub, cfg, km.variant, km.lm)
		m.budgetName = km.cfg.Name
		m.AttachBudget(km.budget)
		m.AttachTelemetry(km.sink)
		km.monitors[s.Writer] = m
		km.order = append(km.order, s.Writer)
		if km.onCreate != nil {
			km.onCreate(s.Writer, m)
		}
	}
	return m.onDeliver(s)
}

// Monitor returns the per-writer monitor, or nil if that writer has not
// published yet.
func (km *KeyedRemoteMonitor) Monitor(writer string) *RemoteMonitor {
	return km.monitors[writer]
}

// Writers returns the observed writer keys in first-seen order.
func (km *KeyedRemoteMonitor) Writers() []string {
	return append([]string(nil), km.order...)
}

// Stop disarms every per-writer monitor.
func (km *KeyedRemoteMonitor) Stop() {
	for _, m := range km.monitors {
		m.Stop()
	}
}

// LateDiscards returns how many samples arrived after their exception and
// were discarded.
func (m *RemoteMonitor) LateDiscards() uint64 { return m.lateDiscards }

// SetLastActivation bounds the supervised stream: once the expectation
// passes the given activation the monitor disarms instead of raising
// further exceptions. Finite experiment runs use this to end supervision
// cleanly with the last real activation.
func (m *RemoteMonitor) SetLastActivation(act uint64) {
	m.lastAct = act
	m.lastActSet = true
}

// Start arms the monitor before the first reception: activation `first` is
// expected by the given local-clock deadline. Without Start, monitoring
// begins at the first received sample (as in the paper's sequence diagram),
// which cannot detect the loss of the very first sample.
func (m *RemoteMonitor) Start(first uint64, deadlineLocal sim.Time) {
	m.started = true
	m.expected = first
	m.deadlineLocal = deadlineLocal
	m.armTimer()
}

// onDeliver is the monitor's hook in the DDS subscriber.
func (m *RemoteMonitor) onDeliver(s *dds.Sample) bool {
	if s.Recovered {
		return true // our own issued receive event
	}
	m.applyBudget()
	now := sim.Time(m.clock.Now())
	m.writer = s.Writer
	if !m.started {
		m.started = true
		m.resolveOK(s, now)
		m.expected = s.Activation + 1
		m.deadlineLocal = s.SrcTimestamp.Add(m.cfg.Period + m.cfg.DMon)
		m.armTimer()
		return true
	}
	if s.Activation < m.expected {
		// Too late: the corresponding exception already fired; discard so
		// the receive event is skipped (§IV-B.3).
		m.lateDiscards++
		if m.tel != nil {
			m.discards.Inc()
		}
		return false
	}
	if s.Activation > m.expected {
		// In-order delivery proves the intermediate activations are lost;
		// raise their exceptions immediately.
		for a := m.expected; a < s.Activation; a++ {
			m.runHandler(a, 0)
			m.deadlineLocal = m.deadlineLocal.Add(m.cfg.Period)
		}
		m.expected = s.Activation
	}
	// On-time reception of the expected activation: reconfigure the timer
	// from the received source timestamp.
	m.resolveOK(s, now)
	m.expected = s.Activation + 1
	m.deadlineLocal = s.SrcTimestamp.Add(m.cfg.Period + m.cfg.DMon)
	m.armTimer()
	return true
}

func (m *RemoteMonitor) resolveOK(s *dds.Sample, now sim.Time) {
	m.deliver(Resolution{
		Activation: s.Activation,
		Status:     StatusOK,
		Start:      s.PubTime,
		End:        now,
		Latency:    now.Sub(s.PubTime),
	})
}

// Stop disarms the monitor: no further timeouts fire. Supervision of a
// terminating stream must be stopped explicitly, exactly like disabling the
// corresponding QoS in DDS.
func (m *RemoteMonitor) Stop() {
	m.stopped = true
	m.timer.Cancel()
	m.timer = rt.Timer{}
}

// armTimer programs the deadline timer for the expected activation. The
// previous timer may be the one that just fired (handleTimeout re-arms from
// it); its handle is stale then, and Cancel does nothing.
func (m *RemoteMonitor) armTimer() {
	m.timer.Cancel()
	if m.stopped {
		return
	}
	delay := m.sync.GlobalAfter(rt.Time(m.deadlineLocal))
	if delay < 0 {
		delay = 0
	}
	act := m.expected
	m.armedAct = act
	m.timer = m.timers.After(delay, m.timeoutFn)
	if m.tel != nil {
		m.programs.Inc()
		m.tel.track.Append(telemetry.Event{
			TS: int64(m.clock.Now()), Act: act, Arg: int64(m.deadlineLocal),
			Flow: m.tel.flow(act),
			Kind: telemetry.KindTimerProgram, Label: m.tel.label,
		})
	}
}

// onTimeout dispatches the timeout routine for the armed activation onto
// the variant's thread. The latency from here to the routine's entry is the
// Fig. 12 measurement.
func (m *RemoteMonitor) onTimeout() {
	t := m.freeTimeout
	if t == nil {
		t = &remoteTimeout{m: m}
		t.run = t.handle
	} else {
		m.freeTimeout = t.next
		t.next = nil
	}
	t.act = m.armedAct
	t.deadline = sim.Time(m.clock.Now())
	cost := m.TimeoutRoutineCost.Sample(m.rng)
	m.exec.Exec(m.timeoutLabel, cost, t.run)
}

// remoteTimeout is one dispatched timeout routine: the activation it
// guards and the global deadline it fired at. Records recycle through their
// monitor's freelist and run is the bound handle method value, created once,
// so a timeout allocates no closure.
type remoteTimeout struct {
	m        *RemoteMonitor
	act      uint64
	deadline sim.Time
	run      func(started rt.Time)
	next     *remoteTimeout
}

// handle is the timeout routine's entry. The record goes back on the
// freelist before the routine runs, which re-arms the timer.
func (t *remoteTimeout) handle(started rt.Time) {
	m, act, deadline := t.m, t.act, t.deadline
	t.next, m.freeTimeout = m.freeTimeout, t
	if m.expected != act {
		return // the sample slipped in between deadline and entry
	}
	m.handleTimeout(act, sim.Time(started).Sub(deadline))
}

// handleTimeout raises the temporal exception for the expected activation:
// the handler either recovers by issuing a receive event with substitute
// data, or the violation is propagated to the subsequent local segment
// (Algorithm 1).
func (m *RemoteMonitor) handleTimeout(act uint64, detection sim.Duration) {
	if m.lastActSet && act > m.lastAct {
		m.Stop()
		return
	}
	m.applyBudget()
	m.runHandler(act, detection)
	// Next deadline: add the publication period to the last set deadline
	// and restart the timer (Fig. 8).
	m.expected = act + 1
	m.deadlineLocal = m.deadlineLocal.Add(m.cfg.Period)
	m.armTimer()
}

// runHandler raises the temporal exception for the activation. A zero
// detection latency marks violations proven by a later in-order arrival
// rather than a timer expiry.
func (m *RemoteMonitor) runHandler(act uint64, detection sim.Duration) {
	now := sim.Time(m.clock.Now())
	rec := m.userException(act, false, now)
	r := Resolution{
		Activation:       act,
		Exception:        true,
		End:              now,
		HandlerEntry:     now,
		HandlerDone:      now,
		DetectionLatency: detection,
	}
	if rec != nil {
		// Recovery: issue the receive event with the recovered data
		// (Algorithm 1, line 4). Downstream hooks and the application
		// callback observe a regular reception.
		r.Status = StatusRecovered
		m.sub.DeliverLocal(&dds.Sample{
			Topic:      m.sub.Topic,
			Writer:     m.writer,
			Activation: act,
			Data:       rec.Data,
			Size:       rec.Size,
			Recovered:  true,
		})
	} else {
		// Propagation: an error propagation event is sent to the monitor
		// of the subsequent local segment instead of a start event
		// (Algorithm 1, line 7).
		r.Status = StatusMissed
		m.propagate(act)
	}
	if m.tel != nil {
		m.tel.handlerDone(act, now, now, rec != nil)
	}
	m.deliver(r)
}

// InterArrivalMonitor is the baseline the paper argues against (Fig. 6): a
// DDS-deadline-QoS-style supervisor that programs a timer for t_max after
// each arrival. It cannot detect consecutive deadline misses (the timer is
// only programmed on arrivals, without interpreting timestamps), so it is
// only suitable for m = 0, and any t_max trades false positives against
// undetected violations.
type InterArrivalMonitor struct {
	sub  *dds.Subscription
	TMax sim.Duration

	clock  rt.Clock
	timers rt.TimerHost
	timer  rt.Timer
	// expireFn is the bound expire method value, created once so arming
	// the timer on every arrival does not allocate a closure.
	expireFn   func()
	arrivals   uint64
	detections []sim.Time
	onDetect   func(sim.Time)
	stopped    bool
}

// NewInterArrivalMonitor attaches an inter-arrival supervisor to the
// subscription with the given maximum inter-arrival time t_max.
func NewInterArrivalMonitor(sub *dds.Subscription, tMax sim.Duration) *InterArrivalMonitor {
	k := sub.Node().ECU.Proc.Kernel()
	m := &InterArrivalMonitor{
		sub: sub, TMax: tMax,
		clock:  simtime.Clock{K: k},
		timers: simtime.TimerHost{K: k},
	}
	m.expireFn = m.expire
	sub.OnDeliver = append([]func(*dds.Sample) bool{m.onDeliver}, sub.OnDeliver...)
	return m
}

// OnDetect registers a callback invoked at each detection.
func (m *InterArrivalMonitor) OnDetect(fn func(sim.Time)) { m.onDetect = fn }

// Arrivals returns the number of observed receptions.
func (m *InterArrivalMonitor) Arrivals() uint64 { return m.arrivals }

// Detections returns the times at which the inter-arrival timer expired.
func (m *InterArrivalMonitor) Detections() []sim.Time { return m.detections }

// Stop disarms the supervisor.
func (m *InterArrivalMonitor) Stop() {
	m.stopped = true
	m.timer.Cancel()
	m.timer = rt.Timer{}
}

func (m *InterArrivalMonitor) onDeliver(s *dds.Sample) bool {
	m.arrivals++
	m.arm()
	return true
}

func (m *InterArrivalMonitor) arm() {
	m.timer.Cancel()
	if m.stopped {
		return
	}
	m.timer = m.timers.After(m.TMax, m.expireFn)
}

func (m *InterArrivalMonitor) expire() {
	now := sim.Time(m.clock.Now())
	m.detections = append(m.detections, now)
	if m.onDetect != nil {
		m.onDetect(now)
	}
	if m.stopped {
		return
	}
	// Like the DDS deadline QoS, the supervision continues: the next
	// detection is due t_max later unless a sample arrives first.
	m.timer = m.timers.After(m.TMax, m.expireFn)
}
