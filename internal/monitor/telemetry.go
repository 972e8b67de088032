package monitor

import (
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

// monTel is a LocalMonitor's probe: the monitor's scan/exception activity on
// the ECU's monitor track plus the shared scan counters. postTrack yields the
// track that a segment's producer-side ring-post events go to — on the
// simulation runtime it is the (single-threaded) monitor track itself; on the
// wall-clock runtime each segment gets its own producer-owned track so the
// single-writer contract holds across goroutines.
type monTel struct {
	sink      *telemetry.Sink
	track     *telemetry.Track
	scans     *telemetry.Counter
	depth     *telemetry.Gauge
	postTrack func(seg string) *telemetry.Track
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
// future) to the sink. A nil sink leaves the monitor dark. On the simulation
// runtime everything executes on one goroutine, so ring-post events share the
// monitor track; wall-clock monitors must use AttachWallclockTelemetry, which
// splits producer-side posts onto per-segment tracks.
func (m *LocalMonitor) AttachTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	if m.ECU == nil {
		panic("monitor: use AttachWallclockTelemetry on the wall-clock runtime (producer posts need their own tracks)")
	}
	m.attachTelemetry(sink, m.ECU.Name, nil)
}

// AttachWallclockTelemetry wires a wall-clock monitor (NewWallclockMonitor)
// to the sink under the given resource name. Producer-side ring-post events
// are recorded on per-segment "<segment>/posts" tracks owned by the posting
// goroutine; monitor-goroutine events (arm/fire/verdict/handler/scan) go to
// the "<name>/monitor" track. This preserves the flight recorder's
// single-writer-per-track contract: StartInjected/EndInjected must still come
// from one producer goroutine per segment.
func (m *LocalMonitor) AttachWallclockTelemetry(sink *telemetry.Sink, name string) {
	if sink == nil {
		return
	}
	if m.ECU != nil {
		panic("monitor: AttachWallclockTelemetry on a simulation monitor; use AttachTelemetry")
	}
	m.attachTelemetry(sink, name, func(seg string) *telemetry.Track {
		return sink.Rec.Track(seg + "/posts")
	})
}

func (m *LocalMonitor) attachTelemetry(sink *telemetry.Sink, name string, postTrack func(string) *telemetry.Track) {
	track := sink.Rec.Track(name + "/monitor")
	if postTrack == nil {
		postTrack = func(string) *telemetry.Track { return track }
	}
	ecu := telemetry.Label{Name: "ecu", Value: name}
	m.tel = &monTel{
		sink:      sink,
		track:     track,
		postTrack: postTrack,
		scans: sink.Reg.Counter("chainmon_monitor_scans_total",
			"Monitor-thread drain passes.", ecu),
		depth: sink.Reg.Gauge("chainmon_monitor_timeout_queue_depth",
			"Armed local timeouts after a monitor pass.", ecu),
	}
	for _, s := range m.segments {
		s.tel = newSegTel(sink, track, postTrack(s.cfg.Name), s.cfg.Name)
	}
}

// remoteTel is a RemoteMonitor's probe. It shares the ECU monitor track with
// the LocalMonitor of the same ECU (both execute on that thread in
// VariantMonitorThread; in VariantDDSContext the track models the
// middleware-thread context instead).
type remoteTel struct {
	*segTel
	programs *telemetry.Counter
	discards *telemetry.Counter
}

// AttachTelemetry wires the remote monitor to the sink. A nil sink leaves it
// dark.
func (m *RemoteMonitor) AttachTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	ecuName := m.sub.Node().ECU.Name
	seg := telemetry.Label{Name: "segment", Value: m.cfg.Name}
	monTrack := sink.Rec.Track(ecuName + "/monitor")
	m.tel = &remoteTel{
		segTel: newSegTel(sink, monTrack, monTrack, m.cfg.Name),
		programs: sink.Reg.Counter("chainmon_timer_programs_total",
			"Remote deadline-timer programming operations.", seg),
		discards: sink.Reg.Counter("chainmon_late_discards_total",
			"Samples discarded because their exception already fired.", seg),
	}
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
