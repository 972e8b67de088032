package chainmon

import (
	"testing"
)

// These tests exercise the library exactly as a downstream user would,
// through the public facade only.

// buildPipeline wires a sensor → processor → sink chain with one remote and
// one local monitored segment, mirroring the quickstart example.
func buildPipeline(t *testing.T, seed int64) (k *Kernel, sensor *Device, remote *RemoteMonitor, local *LocalSegment, chain *Chain, results *int) {
	t.Helper()
	k = NewKernel()
	domain := NewDomain(k, NewRNG(seed))
	clock := ClockConfig{Epsilon: 50 * Microsecond}
	ecu := domain.NewECU("ecu-a", 2, clock)

	const period = 100 * Millisecond
	sensor = domain.NewDevice("sensor", "frames", period, clock)
	sensor.Payload = func(n uint64) (any, int) { return n, 512 }

	processor := ecu.NewNode("processor", 100)
	sink := ecu.NewNode("sink", 90)
	resultPub := processor.NewPublisher("results")
	frameSub := processor.Subscribe("frames",
		func(s *Sample) Duration { return 5 * Millisecond },
		func(s *Sample) { resultPub.Publish(s.Activation, s.Data, 64) })
	n := 0
	results = &n
	sink.Subscribe("results", nil, func(s *Sample) { n++ })

	lm := NewLocalMonitor(ecu)
	mk := Constraint{M: 1, K: 5}
	local = lm.AddSegment(SegmentConfig{
		Name: "s1", DMon: 30 * Millisecond, DEx: Millisecond,
		Period: period, Constraint: mk,
	})
	local.StartOnDeliver(frameSub)
	local.EndOnPublish(resultPub)

	remote = NewRemoteMonitor(frameSub, SegmentConfig{
		Name: "s0", DMon: 10 * Millisecond, DEx: Millisecond,
		Period: period, Constraint: mk,
	}, VariantMonitorThread, lm)
	remote.PropagateTo(local)

	chain = NewChain("c", 42*Millisecond, period, mk)
	chain.Append(remote).Append(local)
	chain.Seal()
	return k, sensor, remote, local, chain, results
}

func TestPublicAPIEndToEnd(t *testing.T) {
	k, sensor, remote, local, chain, results := buildPipeline(t, 1)
	sensor.Start(0)
	k.At(Time(20)*Time(100*Millisecond), func() { sensor.Stop(); remote.Stop() })
	k.RunFor(25 * 100 * Millisecond)

	if *results != 20 {
		t.Errorf("sink received %d results, want 20", *results)
	}
	exec, rec, viol := chain.Totals()
	if exec != 20 || rec != 0 || viol != 0 {
		t.Errorf("chain totals = %d,%d,%d", exec, rec, viol)
	}
	if !chain.BudgetSatisfied() {
		t.Error("10+1+30+1 ≤ 42 should satisfy the budget")
	}
	if local.Stats().Exceptions() != 0 {
		t.Error("fault-free run raised exceptions")
	}
	if local.Counter().Misses() != 0 {
		t.Error("window counter should be clean")
	}
}

func TestPublicAPIFaultInjection(t *testing.T) {
	k, sensor, remote, _, chain, _ := buildPipeline(t, 2)
	sensor.Perturb = func(n uint64) (bool, Duration) { return n == 5 || n == 6, 0 }
	sensor.Start(0)
	k.At(Time(20)*Time(100*Millisecond), func() { sensor.Stop(); remote.Stop() })
	k.RunFor(25 * 100 * Millisecond)

	exec, _, viol := chain.Totals()
	if exec != 20 {
		t.Errorf("executions = %d", exec)
	}
	if viol != 2 {
		t.Errorf("violations = %d, want 2 (two lost frames)", viol)
	}
	// Two consecutive misses violate (1,5): the chain counter must have
	// registered a window violation.
	_, _, winViol := chain.Counter().Totals()
	if winViol == 0 {
		t.Error("consecutive misses must violate the (1,5) window")
	}
}

func TestPublicAPIBudgetSolvers(t *testing.T) {
	p := BudgetProblem{
		Segments: []BudgetSegment{
			{Name: "a", Latencies: []int64{10, 20, 10, 20}, Propagation: 1},
			{Name: "b", Latencies: []int64{5, 5, 30, 5}, Propagation: 1},
		},
		Be2e:       100,
		Constraint: Constraint{M: 1, K: 2},
	}
	if ok, a := Schedulable(p); !ok {
		t.Fatalf("not schedulable: %s", a.Reason)
	}
	ind := SolveBudgetIndependent(p)
	gr := SolveBudgetGreedy(p)
	ex := SolveBudgetExact(p, 0)
	if !ind.Feasible || !gr.Feasible || !ex.Feasible {
		t.Fatalf("solvers disagree: %v / %v / %v", ind, gr, ex)
	}
	if ex.Sum > gr.Sum {
		t.Errorf("exact %d worse than greedy %d", ex.Sum, gr.Sum)
	}
}

func TestPublicAPICounterAndStats(t *testing.T) {
	ctr := NewCounter(Constraint{M: 1, K: 3})
	ctr.Record(true)
	ctr.Record(true)
	if !ctr.Violated() {
		t.Error("counter should be violated")
	}

	if EthernetLink().BCRT <= 0 || LoopbackLink().BCRT <= 0 {
		t.Error("link presets broken")
	}
}

// TestPublicAPITraceRecorder records the trace of a user-built chain: a
// sensor, and a processor that takes 5 ms per frame before it publishes.
func TestPublicAPITraceRecorder(t *testing.T) {
	k := NewKernel()
	domain := NewDomain(k, NewRNG(1))
	ecu := domain.NewECU("ecu-a", 2, ClockConfig{})
	sensor := domain.NewDevice("sensor", "frames", 100*Millisecond, ClockConfig{})
	processor := ecu.NewNode("processor", 100)
	resultPub := processor.NewPublisher("results")
	frameSub := processor.Subscribe("frames",
		func(s *Sample) Duration { return 5 * Millisecond },
		func(s *Sample) { resultPub.Publish(s.Activation, nil, 64) })

	rec := NewTraceRecorder()
	recv := TraceOnDeliver(frameSub)
	rec.Segment(TraceSpan{Name: "process", From: recv, To: TraceOnPublish(resultPub)}, 1)
	rec.Segment(TraceSpan{Name: "transport", From: TraceOnDevicePublish(sensor), To: recv}, 1)
	sensor.Start(0)
	k.At(Time(10)*Time(100*Millisecond), sensor.Stop)
	k.Run()

	tr := rec.Trace()
	process := tr.Segment("process")
	if n := len(process.Latencies); n != 10 {
		t.Fatalf("recorded %d latencies, want 10", n)
	}
	if got := Duration(process.Sample().Min()); got < 5*Millisecond {
		t.Errorf("processing latency %v below the 5 ms cost", got)
	}
	if n := len(tr.Segment("transport").Latencies); n != 10 {
		t.Errorf("recorded %d transport latencies, want 10", n)
	}
}

func TestPublicAPIPerceptionDefaults(t *testing.T) {
	cfg := DefaultPerceptionConfig()
	cfg.Frames = 50
	s := BuildPerception(cfg)
	s.Run()
	if s.PlanDelivered == 0 {
		t.Error("no frames reached the plan service")
	}
	if s.SegObjects.Stats().Latencies().Len() == 0 {
		t.Error("no monitored latencies")
	}
}

// TestPublicAPIRunRealtime drives the public wall-clock entry point with a
// short config: every frame gets exactly one verdict on both segments.
func TestPublicAPIRunRealtime(t *testing.T) {
	cfg := DefaultRealtimeConfig()
	cfg.Frames = 4
	res, err := RunRealtime(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 2 {
		t.Fatalf("got %d segments, want 2", len(res.Segments))
	}
	for _, s := range res.Segments {
		if n := s.OK + s.Missed + s.Recovered; n != cfg.Frames {
			t.Errorf("%s: %d verdicts, want %d", s.Name, n, cfg.Frames)
		}
	}
}
