package realtime

import (
	"bytes"
	"testing"
	"time"

	"chainmon/internal/telemetry"
)

// TestRunStreamedTrace runs the wall-clock demo with the background stream
// writer attached — the -realtime -trace-stream configuration — and checks
// the resulting log: wall timebase, nothing dropped with ample ring room,
// and every verdict flow stitched across at least two tracks. Run under
// -race this pins the producer/monitor/drain-goroutine handoff.
func TestRunStreamedTrace(t *testing.T) {
	var buf bytes.Buffer
	sw, err := telemetry.NewStreamWriter(&buf, "wall", telemetry.StreamOptions{
		RingCap:    1 << 12,
		FlushEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink(1 << 12)
	sink.Rec.SetStream(sw)
	res, err := Run(testConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Segments[0].OK != 8 {
		t.Errorf("objects ok=%d, want 8 (stream attach changed verdicts)", res.Segments[0].OK)
	}
	if sw.Dropped() != 0 {
		t.Errorf("dropped %d events with a %d-slot ring", sw.Dropped(), 1<<12)
	}

	l, err := telemetry.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Timebase != "wall" {
		t.Errorf("timebase = %q, want wall", l.Timebase)
	}
	if int(sw.EventsWritten()) != l.Events() {
		t.Errorf("writer reports %d events, log has %d", sw.EventsWritten(), l.Events())
	}
	type occ struct {
		track string
		kind  telemetry.Kind
	}
	flows := map[uint32][]occ{}
	for _, tr := range l.Tracks() {
		for _, ev := range tr.Events {
			if ev.Flow != 0 {
				flows[ev.Flow] = append(flows[ev.Flow], occ{tr.Name, ev.Kind})
			}
		}
	}
	verdictFlows := 0
	for flow, occs := range flows {
		tracks := map[string]bool{}
		hasVerdict, hasSend := false, false
		for _, o := range occs {
			tracks[o.track] = true
			hasVerdict = hasVerdict || o.kind == telemetry.KindVerdict
			hasSend = hasSend || o.kind == telemetry.KindDDSSend
		}
		if !hasVerdict {
			continue
		}
		verdictFlows++
		if !hasSend {
			t.Errorf("flow %d resolved without a dds-send hop: %v", flow, occs)
		}
		if len(tracks) < 2 {
			t.Errorf("flow %d resolved on a single track: %v", flow, occs)
		}
	}
	// 8 frames, both segments share the "rt" scope: 8 resolved flows.
	if verdictFlows != 8 {
		t.Errorf("%d verdict-carrying flows, want 8", verdictFlows)
	}
}
