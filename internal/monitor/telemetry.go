package monitor

import (
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

// monTel is a LocalMonitor's probe: the monitor's scan/exception activity on
// the "<name>/monitor" track plus the shared scan counters.
type monTel struct {
	sink  *telemetry.Sink
	track *telemetry.Track
	scans *telemetry.Counter
	depth *telemetry.Gauge
}

// segTel carries one segment's verdict-path instrumentation. The verdict
// counters are incremented inside the same verdict sink that feeds
// SegmentStats, so the exported miss/OK counts match Counts() exactly.
// scope is the segment's flow scope (Recorder.FlowScope of its name, unless
// bound to a chain-wide scope first); every verdict, handler and ring-post
// event carries FlowID(scope, act) so the activation's path can be stitched
// across tracks.
type segTel struct {
	track     *telemetry.Track
	posts     *telemetry.Track
	label     uint16
	scope     uint8
	resolved  [3]*telemetry.Counter // indexed by Status
	latency   *telemetry.Histogram
	detection *telemetry.Histogram
	handlers  [2]*telemetry.Counter // recovered, propagated
}

func newSegTel(sink *telemetry.Sink, track, posts *telemetry.Track, name string) *segTel {
	seg := telemetry.Label{Name: "segment", Value: name}
	st := &segTel{
		track: track,
		posts: posts,
		label: sink.Rec.Intern(name),
		scope: sink.Rec.FlowScope(name),
		latency: sink.Reg.Histogram("chainmon_segment_latency_seconds",
			"Segment latency per resolved activation.", nil, seg),
		detection: sink.Reg.Histogram("chainmon_detection_latency_seconds",
			"Deadline expiry to exception-handler entry.", nil, seg),
	}
	for i, status := range []string{"ok", "recovered", "missed"} {
		st.resolved[i] = sink.Reg.Counter("chainmon_segment_resolutions_total",
			"Resolved activations per segment and verdict.", seg,
			telemetry.Label{Name: "status", Value: status})
	}
	for i, outcome := range []string{"recovered", "propagated"} {
		st.handlers[i] = sink.Reg.Counter("chainmon_exception_handlers_total",
			"Temporal-exception handler runs per segment and outcome.", seg,
			telemetry.Label{Name: "outcome", Value: outcome})
	}
	return st
}

// verdict records one in-order resolution: counter, latency/detection
// histograms, and a KindVerdict trace event.
func (st *segTel) verdict(r Resolution) {
	if int(r.Status) < len(st.resolved) {
		st.resolved[r.Status].Inc()
	}
	if r.Latency > 0 {
		st.latency.Observe(int64(r.Latency))
	}
	if r.DetectionLatency > 0 {
		st.detection.Observe(int64(r.DetectionLatency))
	}
	st.track.Append(telemetry.Event{
		TS: int64(r.End), Act: r.Activation, Arg: int64(r.Latency),
		Flow: telemetry.FlowID(st.scope, r.Activation),
		Kind: telemetry.KindVerdict, Status: uint8(r.Status), Label: st.label,
	})
}

// flow is the flow identity of one of this segment's activations.
func (st *segTel) flow(act uint64) uint32 { return telemetry.FlowID(st.scope, act) }

// handlerDone records one exception-handler completion as a span event.
func (st *segTel) handlerDone(act uint64, entry, done sim.Time, recovered bool) {
	outcome, idx := telemetry.OutcomePropagated, 1
	if recovered {
		outcome, idx = telemetry.OutcomeRecovered, 0
	}
	st.handlers[idx].Inc()
	st.track.Append(telemetry.Event{
		TS: int64(done), Act: act, Arg: int64(done.Sub(entry)),
		Flow: st.flow(act),
		Kind: telemetry.KindExcHandler, Status: outcome, Label: st.label,
	})
}

// AttachTelemetry wires the local monitor and all its segments (present and
// future) to the sink under the given resource name, the ECU's name on the
// simulation runtime. A nil sink leaves the monitor dark. Monitor-thread
// events (arm/fire/verdict/handler/scan) go to the "<name>/monitor" track.
// Where ring posts go follows from the constructor: NewLocalMonitor runs
// everything on one goroutine, so they share the monitor track;
// NewWallclockMonitor gives each segment a "<segment>/posts" track owned by
// its producer goroutine, which keeps the flight recorder's
// single-writer-per-track contract (StartInjected/EndInjected must still
// come from one producer goroutine per segment).
func (m *LocalMonitor) AttachTelemetry(sink *telemetry.Sink, name string) {
	if sink == nil {
		return
	}
	ecu := telemetry.Label{Name: "ecu", Value: name}
	m.tel = &monTel{
		sink:  sink,
		track: sink.Rec.Track(name + "/monitor"),
		scans: sink.Reg.Counter("chainmon_monitor_scans_total",
			"Monitor-thread drain passes.", ecu),
		depth: sink.Reg.Gauge("chainmon_monitor_timeout_queue_depth",
			"Armed local timeouts after a monitor pass.", ecu),
	}
	for _, s := range m.segments {
		m.instrument(s)
	}
}

// instrument gives a segment of an instrumented monitor its probe. A
// wall-clock monitor, the one without an ECU, gives the segment's producer
// a posts track of its own.
func (m *LocalMonitor) instrument(s *LocalSegment) {
	posts := m.tel.track
	if m.ECU == nil {
		posts = m.tel.sink.Rec.Track(s.cfg.Name + "/posts")
	}
	s.tel = newSegTel(m.tel.sink, m.tel.track, posts, s.cfg.Name)
}

// AttachTelemetry wires the remote monitor to the sink. A nil sink leaves it
// dark. Its probe shares the ECU monitor track with the LocalMonitor of the
// same ECU (both execute on that thread in VariantMonitorThread; in
// VariantDDSContext the track models the middleware-thread context instead).
func (m *RemoteMonitor) AttachTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	seg := telemetry.Label{Name: "segment", Value: m.cfg.Name}
	track := sink.Rec.Track(m.sub.Node().ECU.Name + "/monitor")
	m.tel = newSegTel(sink, track, track, m.cfg.Name)
	m.programs = sink.Reg.Counter("chainmon_timer_programs_total",
		"Remote deadline-timer programming operations.", seg)
	m.discards = sink.Reg.Counter("chainmon_late_discards_total",
		"Samples discarded because their exception already fired.", seg)
}

// AttachTelemetry wires every per-writer monitor (present and future) to the
// sink. A nil sink leaves the family dark.
func (km *KeyedRemoteMonitor) AttachTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	km.sink = sink
	for _, w := range km.order {
		km.monitors[w].AttachTelemetry(sink)
	}
}

// AttachTelemetry records supervisor mode transitions on a dedicated track
// and as a mode gauge. A nil sink leaves the supervisor dark.
func (s *Supervisor) AttachTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	track := sink.Rec.Track("supervisor")
	mode := sink.Reg.Gauge("chainmon_system_mode",
		"Current supervisor mode (0 nominal, 1 degraded, 2 safe-stop).")
	transitions := sink.Reg.Counter("chainmon_mode_transitions_total",
		"Supervisor mode transitions.")
	s.OnModeChange(func(ch ModeChange) {
		transitions.Inc()
		mode.Set(int64(ch.To))
		track.Append(telemetry.Event{
			TS: int64(ch.At), Arg: int64(ch.From),
			Kind: telemetry.KindModeChange, Status: uint8(ch.To),
			Label: sink.Rec.Intern(ch.Chain),
		})
	})
}

// AttachTelemetry counts the chain's end-to-end executions by verdict. A nil
// sink leaves the chain dark.
func (c *Chain) AttachTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	chain := telemetry.Label{Name: "chain", Value: c.Name}
	var counters [3]*telemetry.Counter
	for i, status := range []string{"ok", "recovered", "missed"} {
		counters[i] = sink.Reg.Counter("chainmon_chain_executions_total",
			"Chain end-to-end executions per verdict.", chain,
			telemetry.Label{Name: "status", Value: status})
	}
	c.OnExecution(func(r Resolution) {
		if int(r.Status) < len(counters) {
			counters[r.Status].Inc()
		}
	})
}
