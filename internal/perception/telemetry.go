package perception

import (
	"chainmon/internal/monitor"
	"chainmon/internal/telemetry"
	"chainmon/internal/vclock"
)

// kernelQueueSampleEvery thins KindKernelQueue trace events: the counters
// and gauges see every heap operation, the flight recorder every N-th, so a
// full run fits the ring without drowning out the other tracks.
const kernelQueueSampleEvery = 64

// AttachTelemetry wires the whole perception system — sim kernel, DDS
// domain and links, device and ECU clocks, local and remote monitors, and
// chains — to the sink. Call it after New (so the monitors exist) and
// before Run. A nil sink leaves the system dark; the hot paths then cost a
// single pointer check each.
func AttachTelemetry(s *System, sink *telemetry.Sink) {
	if sink == nil {
		return
	}

	// Flow scopes: all topics and segments of one pipeline branch share a
	// scope, so the events of activation n across publisher, link, subscriber
	// and monitor carry one flow id and the Perfetto export stitches them into
	// a single dds-send → net → dds-recv → verdict arrow chain. The branches
	// merge in the fused trunk, which gets its own scope (activation numbering
	// is consistent across the chain, so the trunk flow of n continues where
	// the branch flows of n end).
	// Bound in a fixed order: scope ids are assigned on first use, and the
	// streamed trace must be byte-identical across same-seed runs.
	for _, b := range []struct {
		scope   string
		streams []string
	}{
		{"front", []string{TopicFront, SegFrontRemote, SegFusionFront}},
		{"rear", []string{TopicRear, SegRearRemote, SegFusionRear}},
		{"trunk", []string{TopicFused, TopicGround, TopicNonGround, TopicObjects,
			SegFusedRemote, SegObjectsLocal, SegGroundLocal}},
	} {
		for _, stream := range b.streams {
			sink.Rec.BindFlow(stream, b.scope)
		}
	}

	// Sim-kernel event queue: depth and heap-operation metrics from the
	// plain-callback probe (internal/sim stays telemetry-free).
	track := sink.Rec.Track("kernel")
	ops := sink.Reg.Counter("chainmon_kernel_heap_ops_total",
		"Event-queue heap operations (push, pop, remove).")
	depth := sink.Reg.Gauge("chainmon_kernel_queue_depth",
		"Pending events in the sim-kernel queue.")
	var opCount uint64
	s.K.SetQueueProbe(func(d int) {
		opCount++
		ops.Inc()
		depth.Set(int64(d))
		if opCount%kernelQueueSampleEvery == 0 {
			track.Append(telemetry.Event{
				TS: int64(s.K.Now()), Act: opCount, Arg: int64(d),
				Kind: telemetry.KindKernelQueue,
			})
		}
	})

	s.Domain.AttachTelemetry(sink)
	for _, c := range []*vclock.Clock{
		s.ECU1.Clock, s.ECU2.Clock, s.FrontLidar.Clock, s.RearLidar.Clock,
	} {
		c.AttachTelemetry(sink)
	}
	for _, lm := range []*monitor.LocalMonitor{s.MonECU1, s.MonECU2} {
		if lm != nil {
			lm.AttachTelemetry(sink, lm.ECU.Name)
		}
	}
	for _, rm := range []*monitor.RemoteMonitor{s.RemFront, s.RemRear, s.RemFused} {
		if rm != nil {
			rm.AttachTelemetry(sink)
		}
	}
	for _, c := range []*monitor.Chain{s.ChainFront, s.ChainRear} {
		if c != nil {
			c.AttachTelemetry(sink)
		}
	}
}
