// Package telemetry is the monitor's own observability layer: a bounded
// flight recorder for typed trace events, a metrics registry of counters,
// gauges and fixed-bucket latency histograms, and exporters for the Chrome
// trace-event JSON format (loadable in Perfetto), the Prometheus text
// exposition format, and CSV.
//
// The package deliberately imports no other internal package except the
// leaf ring package internal/spsc, which imports none: timestamps are plain
// int64 nanoseconds (virtual time for the simulation, monotonic wall time
// for the wall-clock monitor), so every runtime package — including
// internal/sim itself — can emit into it without import cycles.
//
// Instrumented objects hold a nil pointer to a small pre-resolved probe
// struct by default; the uninstrumented hot path therefore costs exactly
// one pointer check. Tracks are single-writer: one per goroutine (per ECU
// thread in the simulation), appended wait-free with drop-oldest semantics
// and a dropped-event counter, so a run can never be slowed down or grown
// unboundedly by its own instrumentation.
package telemetry

import "sync"

// Kind is the type tag of a trace event.
type Kind uint8

// Event kinds. The comments state how Arg/Act/Status/Label are used.
const (
	// KindRingPostStart: a start event was posted into a segment's ring.
	// Act = activation, Arg = ring occupancy after the post, Label = segment.
	KindRingPostStart Kind = iota + 1
	// KindRingPostEnd: an end event was posted. Fields as KindRingPostStart.
	KindRingPostEnd
	// KindRingDrop: a posting was dropped because the ring was full.
	// Fields as KindRingPostStart.
	KindRingDrop
	// KindScan: one monitor-thread drain pass completed. Arg = pass
	// duration in ns (the pass spans [TS-Arg, TS]).
	KindScan
	// KindTimeoutArm: a timeout was armed for an activation.
	// Act = activation, Arg = absolute deadline in ns, Label = segment.
	KindTimeoutArm
	// KindTimeoutFire: an armed timeout expired without an end event.
	// Act = activation, Label = segment.
	KindTimeoutFire
	// KindTimeoutQueue: timeout-queue depth sample. Arg = queue depth.
	KindTimeoutQueue
	// KindTimerProgram: a remote monitor programmed its deadline timer,
	// t = t_st,n + (i+1)·P + d_mon. Act = expected activation,
	// Arg = local-clock deadline in ns, Label = segment.
	KindTimerProgram
	// KindVerdict: a segment activation resolved. Act = activation,
	// Status = StatusOK/StatusRecovered/StatusMissed, Arg = latency in ns
	// (0 when unknown), Label = segment.
	KindVerdict
	// KindExcHandler: a temporal-exception handler ran. The span is
	// [TS-Arg, TS] (Arg = handler duration in ns), Act = activation,
	// Status = OutcomeRecovered/OutcomePropagated, Label = segment.
	KindExcHandler
	// KindDDSSend: a sample was published. Act = activation,
	// Arg = size in bytes, Label = topic.
	KindDDSSend
	// KindDDSRecv: a sample was delivered to a subscription.
	// Act = activation, Arg = publication→delivery latency in ns,
	// Label = topic.
	KindDDSRecv
	// KindNetDrop: a link lost a message. Arg = size, Label = link.
	KindNetDrop
	// KindNetHold: a reordering fault held a message back past the FIFO
	// order. Arg = hold delay in ns, Label = link.
	KindNetHold
	// KindNetDup: a duplication fault delivered a second copy.
	// Arg = extra delay in ns, Label = link.
	KindNetDup
	// KindClockSync: a clock's PTP random walk stepped. Arg = new
	// local-minus-global offset in ns, Label = clock.
	KindClockSync
	// KindKernelQueue: sim-kernel event-queue sample. Arg = pending
	// events, Act = heap operations so far.
	KindKernelQueue
	// KindModeChange: the supervisor changed the system mode.
	// Arg = old mode, Status = new mode, Label = triggering chain.
	KindModeChange
	// KindNetSend: a link accepted a message for delivery. Act = activation,
	// Arg = scheduled response time in ns (send → delivery), Label = link.
	KindNetSend
	// KindPubSkip: the monitor's skip-next-publication veto suppressed a
	// late publication (Algorithm 2 propagation). Act = activation,
	// Arg = size in bytes, Label = topic.
	KindPubSkip
	// KindBudgetSwap: the adaptive budget controller staged a new deadline
	// table version (one event per retimed segment). Act = table epoch,
	// Arg = new monitored deadline in ns, Label = segment.
	KindBudgetSwap
	// KindBlameExemplar: the blame engine admitted an activation into its
	// worst-exemplar store. Act = activation, Arg = end-to-end latency in
	// ns, Label = the primary blamed segment, Status = worst verdict.
	// Flow is deliberately 0 so exemplar records never join the causal
	// flows they describe.
	KindBlameExemplar

	kindCount
)

var kindNames = [kindCount]string{
	KindRingPostStart: "ring-post-start",
	KindRingPostEnd:   "ring-post-end",
	KindRingDrop:      "ring-drop",
	KindScan:          "scan",
	KindTimeoutArm:    "timeout-arm",
	KindTimeoutFire:   "timeout-fire",
	KindTimeoutQueue:  "timeout-queue",
	KindTimerProgram:  "timer-program",
	KindVerdict:       "verdict",
	KindExcHandler:    "exc-handler",
	KindDDSSend:       "dds-send",
	KindDDSRecv:       "dds-recv",
	KindNetDrop:       "net-drop",
	KindNetHold:       "net-hold",
	KindNetDup:        "net-dup",
	KindClockSync:     "clock-sync",
	KindKernelQueue:   "kernel-queue",
	KindModeChange:    "mode-change",
	KindNetSend:       "net-send",
	KindPubSkip:       "pub-skip",
	KindBudgetSwap:    "budget-swap",
	KindBlameExemplar: "blame-exemplar",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Verdict status codes carried in Event.Status for KindVerdict. The values
// match monitor.Status so conversion is a plain cast.
const (
	StatusOK        uint8 = 0
	StatusRecovered uint8 = 1
	StatusMissed    uint8 = 2
)

// StatusName renders a verdict status code.
func StatusName(s uint8) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRecovered:
		return "recovered"
	case StatusMissed:
		return "missed"
	}
	return "unknown"
}

// Exception handler outcomes carried in Event.Status for KindExcHandler.
const (
	OutcomeRecovered  uint8 = 1
	OutcomePropagated uint8 = 2
)

// Event is one flight-recorder record. It is a fixed-size value (32 bytes)
// so a track ring is a flat array with no per-event allocation.
type Event struct {
	// TS is the event timestamp in nanoseconds: virtual time for the
	// simulation, monotonic wall time for the wall-clock monitor.
	TS int64
	// Act is the activation index the event belongs to (0 when N/A).
	Act uint64
	// Arg is the kind-specific payload (see the Kind constants).
	Arg int64
	// Flow is the causal-flow identity of the event (0 = not part of a
	// flow). FlowID packs a flow scope and the activation index, so every
	// hop of one activation — publication, link transmission, delivery,
	// ring post, verdict — shares one id across tracks. The Perfetto
	// exporter stitches equal ids into flow arrows.
	Flow uint32
	// Label is an interned string id resolved via Recorder.LabelName
	// (0 = none).
	Label uint16
	// Kind tags the event type.
	Kind Kind
	// Status is the kind-specific status code.
	Status uint8
}

// Sink bundles the flight recorder and the metrics registry that an
// instrumented system emits into. A nil *Sink disables all instrumentation;
// every Attach function in the runtime packages treats nil as "stay dark".
type Sink struct {
	Rec *Recorder
	Reg *Registry

	hookMu sync.Mutex
	hooks  []func()

	dropMu sync.Mutex
	drops  []*Gauge // the dropped-events gauge of each recorder track, by track id
}

// AddExportHook registers fn to run at the start of every metrics export
// (WriteMetrics — which serves both the live /metrics scrape and the
// end-of-run -metrics-out snapshot). Components whose state is not already
// registry-backed (e.g. a livestats.Set republishing its gauges) hook in
// here, so every export surface sees the same values. Hooks must be safe
// to call concurrently with the instrumented system.
func (s *Sink) AddExportHook(fn func()) {
	s.hookMu.Lock()
	s.hooks = append(s.hooks, fn)
	s.hookMu.Unlock()
}

// runExportHooks invokes the registered hooks outside the hook lock, so a
// hook may itself touch the sink. The hook list is append-only, so the
// registered prefix read under the lock never changes.
func (s *Sink) runExportHooks() {
	s.hookMu.Lock()
	hooks := s.hooks
	s.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// NewSink creates a sink whose tracks hold trackCap events each (rounded up
// to a power of two; 0 selects the default of 64Ki events per track).
func NewSink(trackCap int) *Sink {
	return &Sink{Rec: NewRecorder(trackCap), Reg: NewRegistry()}
}

// FlowID packs a flow scope and an activation index into the 32-bit flow
// identity carried by Event.Flow. The activation index is consistent across
// all segments and topics of a chain, so one (scope, act) pair names one
// end-to-end activation; the scope separates chains that reuse activation
// numbering. The low 24 bits wrap after ~16M activations per scope — far
// beyond any retained ring window.
func FlowID(scope uint8, act uint64) uint32 {
	return uint32(scope)<<24 | uint32(act&0xffffff)
}

// FlowScopeOf extracts the scope id of a flow identity.
func FlowScopeOf(flow uint32) uint8 { return uint8(flow >> 24) }

// FlowAct extracts the (truncated) activation index of a flow identity.
func FlowAct(flow uint32) uint64 { return uint64(flow & 0xffffff) }
