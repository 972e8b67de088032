package perception

import (
	"runtime"
	"testing"

	"chainmon/internal/monitor"
)

// TestMonitoredFrameAllocs is the allocation gate of the simulated frame
// and of the monitor layer on seed 1's full chain with hold-over recovery
// on the two lidar remote segments (perfbench's perception_live
// configuration). An unmonitored frame allocates only its application
// payloads — six FrameData, two from the lidars and four from the
// fusion, classifier and detection callbacks — since samples, delivery
// records, work items and kernel events are all recycled; a message-path
// regression adds at least one object per message and fails the bound.
// A monitored frame allocates at most one object more than an unmonitored
// one: monitor timeouts ride on recycled kernel events and handler
// dispatches on recycled records, so what is left of the margin is verdict
// bookkeeping. Only Run is counted; the build is not.
func TestMonitoredFrameAllocs(t *testing.T) {
	const frames = 3000
	perFrame := func(cfg Config) float64 {
		sys := Build(cfg)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sys.Run()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / frames
	}
	bare := DefaultConfig()
	bare.Seed = 1
	bare.Frames = frames
	bare.Monitored = false
	monitored := bare
	monitored.Monitored = true
	monitored.FullChain = true
	recover := func(*monitor.ExceptionContext) *monitor.Recovery {
		return &monitor.Recovery{Data: &FrameData{Points: 11000, FrontOnly: true}, Size: 16 * 11000}
	}
	monitored.Handlers = map[string]monitor.Handler{SegFrontRemote: recover, SegRearRemote: recover}

	b, m := perFrame(bare), perFrame(monitored)
	t.Logf("allocs per frame: unmonitored %.2f, monitored %.2f, marginal %+.2f", b, m, m-b)
	if b > 6.5 {
		t.Errorf("an unmonitored frame allocates %.2f, want at most 6.5 (its six payloads)", b)
	}
	if m-b > 1.0 {
		t.Errorf("the monitor layer allocates %+.2f per frame (%.2f monitored, %.2f unmonitored), want at most +1.0",
			m-b, m, b)
	}
}
