package monitor

import (
	"testing"

	"chainmon/internal/livestats"
	"chainmon/internal/sim"
	"chainmon/internal/weaklyhard"
)

// TestAttachLiveDrainLatencies attaches a live set between two AddSegment
// calls. The segment added before AttachLive and the one added after each
// feed their drain sketch one latency per start posted to them, and
// together exactly the starts the monitor's own MonLatency sample counts.
func TestAttachLiveDrainLatencies(t *testing.T) {
	const workerStarts, injectedStarts = 10, 4
	r := newTestRig()
	r.segment(50*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil)
	set := livestats.NewSet(0)
	r.mon.AttachLive(set)
	injected := r.mon.AddSegment(SegmentConfig{
		Name: "injected", DMon: 50 * sim.Millisecond, Period: 100 * sim.Millisecond,
	})
	r.produce(workerStarts, 100*sim.Millisecond)
	for i := 0; i < injectedStarts; i++ {
		act := uint64(i)
		at := sim.Time(i)*sim.Time(100*sim.Millisecond) + sim.Time(30*sim.Millisecond)
		r.k.At(at, func() { injected.StartInjected(act) })
		r.k.At(at.Add(sim.Millisecond), func() { injected.EndInjected(act) })
	}
	r.k.Run()

	h := set.Health()
	for _, c := range []struct {
		name   string
		starts int
	}{{"worker", workerStarts}, {"injected", injectedStarts}} {
		d := h.Segments[c.name].Drain
		if d == nil || d.Count != uint64(c.starts) {
			t.Errorf("%s: drain sketch %+v, want %d drain latencies", c.name, d, c.starts)
		}
	}
	if got, want := r.mon.Overheads().MonLatency.Len(), workerStarts+injectedStarts; got != want {
		t.Errorf("MonLatency holds %d samples, want %d (one per start)", got, want)
	}
}
