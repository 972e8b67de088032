package perception

import (
	"testing"

	"chainmon/internal/lidar"
	"chainmon/internal/monitor"
	"chainmon/internal/sim"
)

func TestUnmonitoredRunProducesTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frames = 400
	cfg.Monitored = false
	s := Build(cfg)
	rec := s.RecordTrace()
	s.Run()

	tr := rec.Trace()
	obj := tr.Segment(SegObjectsLocal)
	gnd := tr.Segment(SegGroundLocal)
	if obj == nil || gnd == nil {
		t.Fatal("missing segment traces")
	}
	if len(obj.Latencies) < 390 {
		t.Fatalf("objects latencies = %d, want ≈400", len(obj.Latencies))
	}
	os := obj.Sample()
	t.Logf("objects: med=%v p95=%v max=%v",
		sim.Duration(os.Median()), sim.Duration(os.Quantile(0.95)), sim.Duration(os.Max()))
	gs := gnd.Sample()
	t.Logf("ground:  med=%v p95=%v max=%v",
		sim.Duration(gs.Median()), sim.Duration(gs.Quantile(0.95)), sim.Duration(gs.Max()))
	// Shape requirements from Fig. 9: medians in the tens of milliseconds,
	// a tail of several hundred milliseconds.
	if os.Median() < float64(10*sim.Millisecond) || os.Median() > float64(250*sim.Millisecond) {
		t.Errorf("objects median %v outside plausible range", sim.Duration(os.Median()))
	}
	if os.Max() < float64(150*sim.Millisecond) {
		t.Errorf("objects max %v lacks the heavy tail", sim.Duration(os.Max()))
	}
	// As in the evaluation, the ground segment (dominated by rviz2 taking
	// the large ground cloud) runs longer than the objects segment.
	if gs.Median() <= os.Median() {
		t.Errorf("ground median %v should exceed objects median %v",
			sim.Duration(gs.Median()), sim.Duration(os.Median()))
	}
}

func TestMonitoredRunCapsLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frames = 150
	s := Build(cfg)
	s.Run()

	for _, seg := range []*monitor.LocalSegment{s.SegObjects, s.SegGround} {
		st := seg.Stats()
		lat := st.Latencies()
		if lat.Len() < 100 {
			t.Fatalf("%s: only %d latency samples", st.Name, lat.Len())
		}
		// The monitored latency definition caps every activation at
		// d_mon plus the bounded exception handling time.
		cap := float64(cfg.LocalDeadline + 5*sim.Millisecond)
		if lat.Max() > cap {
			t.Errorf("%s: max latency %v exceeds monitored cap", st.Name, sim.Duration(lat.Max()))
		}
		ok, rec, miss := st.Counts()
		t.Logf("%s: ok=%d rec=%d miss=%d", st.Name, ok, rec, miss)
		if miss+rec == 0 {
			t.Errorf("%s: no exceptions at a 100 ms deadline — tail too light", st.Name)
		}
	}
	// The evaluation's asymmetry: the ground segment raises roughly twice
	// as many exceptions as the objects segment (1699 vs 934 in Fig. 10).
	if s.SegGround.Stats().Exceptions() <= s.SegObjects.Stats().Exceptions() {
		t.Errorf("ground exceptions (%d) should exceed objects exceptions (%d)",
			s.SegGround.Stats().Exceptions(), s.SegObjects.Stats().Exceptions())
	}
}

func TestMonitoredExceptionLatenciesNearDeadline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frames = 150
	s := Build(cfg)
	s.Run()
	exc := s.SegObjects.Stats().ExceptionLatencies()
	if exc.Len() == 0 {
		t.Skip("no exceptions in this run")
	}
	// Exception cases sit at d_mon plus detection+handling (sub-ms).
	if exc.Min() < float64(cfg.LocalDeadline) {
		t.Errorf("exception latency %v below the deadline", sim.Duration(exc.Min()))
	}
	if exc.Max() > float64(cfg.LocalDeadline+2*sim.Millisecond) {
		t.Errorf("exception latency %v too far past the deadline", sim.Duration(exc.Max()))
	}
}

func TestFullChainRunAccountsAllActivations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frames = 120
	cfg.FullChain = true
	s := Build(cfg)
	s.Run()

	exec, rec, viol := s.ChainFront.Totals()
	if exec < uint64(cfg.Frames)-5 {
		t.Errorf("front chain executions = %d, want ≈%d", exec, cfg.Frames)
	}
	t.Logf("front chain: exec=%d rec=%d viol=%d", exec, rec, viol)
	t.Logf("%s", s.ChainFront.Summary())
	if !s.ChainFront.BudgetSatisfied() {
		t.Error("configured deadlines must satisfy the chain budget")
	}
}

func TestNetworkLossPropagatesThroughChain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frames = 200
	cfg.FullChain = true
	cfg.Network.LossProb = 0.05 // heavy loss on the lidar links
	s := Build(cfg)
	s.Run()

	// Lost lidar frames must surface as remote-segment misses and
	// propagate into chain violations (no handler installed).
	_, _, frontMiss := s.RemFront.Stats().Counts()
	if frontMiss == 0 {
		t.Error("no remote misses despite 5% loss")
	}
	_, _, viol := s.ChainFront.Totals()
	if viol == 0 {
		t.Error("no chain violations despite lost frames")
	}
	t.Logf("front remote misses=%d chain violations=%d", frontMiss, viol)
}

func TestRecoveryHandlerSuppressesChainViolation(t *testing.T) {
	run := func(withHandler bool) uint64 {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.Frames = 200
		cfg.FullChain = true
		cfg.Network.LossProb = 0.05
		if withHandler {
			cfg.Handlers = map[string]monitor.Handler{
				// Fig. 3: the fusion's rear segment recovers by sending
				// the front-only cloud; the front remote segment recovers
				// by repeating held-over data.
				SegFrontRemote: func(ctx *monitor.ExceptionContext) *monitor.Recovery {
					return &monitor.Recovery{Data: &FrameData{Meta: heldOverMeta(ctx.Activation), Points: 6000}, Size: 16 * 6000}
				},
				SegRearRemote: func(ctx *monitor.ExceptionContext) *monitor.Recovery {
					return &monitor.Recovery{Data: &FrameData{Meta: heldOverMeta(ctx.Activation), Points: 6000}, Size: 16 * 6000}
				},
			}
		}
		s := Build(cfg)
		s.Run()
		_, _, viol := s.ChainFront.Totals()
		return viol
	}
	without := run(false)
	with := run(true)
	t.Logf("violations without handler=%d, with=%d", without, with)
	if with >= without {
		t.Errorf("recovery handlers should reduce chain violations (%d → %d)", without, with)
	}
}

// heldOverMeta fabricates the metadata of a held-over recovery frame.
func heldOverMeta(act uint64) lidar.FrameMeta {
	return lidar.FrameMeta{Activation: act, GroundPoints: 6000}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, int) {
		cfg := DefaultConfig()
		cfg.Frames = 80
		s := Build(cfg)
		s.Run()
		_, _, miss := s.SegObjects.Stats().Counts()
		return s.PlanDelivered, miss
	}
	d1, m1 := run()
	d2, m2 := run()
	if d1 != d2 || m1 != m2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", d1, m1, d2, m2)
	}
}
