package dds

import (
	"testing"

	"chainmon/internal/netsim"
	"chainmon/internal/sim"
	"chainmon/internal/vclock"
)

// newTestDomain builds a two-ECU domain with deterministic, simple costs.
func newTestDomain() (*sim.Kernel, *Domain, *ECU, *ECU) {
	k := sim.NewKernel()
	d := NewDomain(k, sim.NewRNG(1))
	// Strip randomness for exact-latency assertions.
	d.KsoftirqCost = sim.Constant(10 * sim.Microsecond)
	d.DeliverCost = sim.Constant(20 * sim.Microsecond)
	d.InterECU = netsim.Config{BCRT: 500 * sim.Microsecond}
	d.Loopback = netsim.Config{BCRT: 50 * sim.Microsecond}
	e1 := d.NewECU("ecu1", 4, vclock.Config{})
	e2 := d.NewECU("ecu2", 4, vclock.Config{})
	e1.Proc.CtxSwitch = sim.Constant(0)
	e1.Proc.Wakeup = sim.Constant(0)
	e2.Proc.CtxSwitch = sim.Constant(0)
	e2.Proc.Wakeup = sim.Constant(0)
	return k, d, e1, e2
}

func TestPublishDeliversAcrossECUs(t *testing.T) {
	k, _, e1, e2 := newTestDomain()
	n1 := e1.NewNode("sender", PrioExecBase)
	n2 := e2.NewNode("receiver", PrioExecBase)

	// The sample is lent to the callback: copy it there.
	var got Sample
	var at sim.Time
	delivered := false
	n2.Subscribe("topic", nil, func(s *Sample) { got, at, delivered = *s, k.Now(), true })

	pub := n1.NewPublisher("topic")
	k.At(0, func() { pub.Publish(0, "hello", 0) })
	k.Run()

	if !delivered {
		t.Fatal("sample not delivered")
	}
	if got.Data != "hello" || got.Activation != 0 || got.Topic != "topic" {
		t.Errorf("sample = %+v", got)
	}
	// 500µs network + 10µs ksoftirq + 20µs deliver = 530µs.
	if want := sim.Time(530 * sim.Microsecond); at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
	if got.RecvTime.Sub(got.PubTime) != 530*sim.Microsecond {
		t.Errorf("recv-pub = %v", got.RecvTime.Sub(got.PubTime))
	}
}

func TestLoopbackUsedWithinECU(t *testing.T) {
	k, _, e1, _ := newTestDomain()
	n1 := e1.NewNode("a", PrioExecBase+1)
	n2 := e1.NewNode("b", PrioExecBase)
	var at sim.Time
	n2.Subscribe("t", nil, func(s *Sample) { at = k.Now() })
	pub := n1.NewPublisher("t")
	k.At(0, func() { pub.Publish(0, nil, 0) })
	k.Run()
	// 50µs loopback + 10 + 20 = 80µs.
	if want := sim.Time(80 * sim.Microsecond); at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestSequenceNumbersIncrement(t *testing.T) {
	k, _, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	n2 := e2.NewNode("r", PrioExecBase)
	var seqs []uint64
	n2.Subscribe("t", nil, func(s *Sample) { seqs = append(seqs, s.Activation) })
	pub := n1.NewPublisher("t")
	for i := 0; i < 5; i++ {
		i := i
		k.At(sim.Time(i)*sim.Time(sim.Millisecond), func() { pub.Publish(uint64(i), i, 0) })
	}
	k.Run()
	if len(seqs) != 5 {
		t.Fatalf("delivered %d, want 5", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("seqs = %v", seqs)
		}
	}
}

func TestPrePublishVetoSkipsPublication(t *testing.T) {
	k, _, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	n2 := e2.NewNode("r", PrioExecBase)
	var acts []uint64
	n2.Subscribe("t", nil, func(s *Sample) { acts = append(acts, s.Activation) })
	pub := n1.NewPublisher("t")
	skip := true
	pub.PrePublish = append(pub.PrePublish, func(*Sample) bool { return !skip })
	k.At(0, func() { pub.Publish(0, nil, 0) }) // vetoed
	k.At(sim.Time(sim.Millisecond), func() {
		skip = false
		pub.Publish(1, nil, 0)
	})
	k.Run()
	if len(acts) != 1 || acts[0] != 1 {
		t.Errorf("acts = %v, want [1] (activation 0 skipped)", acts)
	}
	published, skipped := pub.Stats()
	if published != 1 || skipped != 1 {
		t.Errorf("stats = %d,%d", published, skipped)
	}
}

func TestPublishBypassIgnoresVetoHooks(t *testing.T) {
	k, _, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	n2 := e2.NewNode("r", PrioExecBase)
	got := 0
	n2.Subscribe("t", nil, func(s *Sample) { got++ })
	pub := n1.NewPublisher("t")
	pub.PrePublish = append(pub.PrePublish, func(*Sample) bool { return false })
	k.At(0, func() {
		if pub.Publish(0, nil, 0) {
			t.Error("regular publish should have been vetoed")
		}
		pub.PublishBypass(0, "recovery", 0)
	})
	k.Run()
	if got != 1 {
		t.Errorf("delivered %d, want 1 (bypass only)", got)
	}
	if published, skipped := pub.Stats(); published != 1 || skipped != 1 {
		t.Errorf("stats = %d,%d, want 1,1", published, skipped)
	}
	// Without the veto, Publish reports the publication.
	pub.PrePublish = nil
	k.At(k.Now()+1, func() {
		if !pub.Publish(1, nil, 0) {
			t.Error("publish without a veto reported false")
		}
	})
	k.Run()
	if got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
}

func TestOnPublishHookObservesSample(t *testing.T) {
	k, _, e1, _ := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	var observed Sample
	pub := n1.NewPublisher("t")
	pub.OnPublish = append(pub.OnPublish, func(s *Sample) { observed = *s })
	k.At(42, func() { pub.Publish(0, "x", 7) })
	k.Run()
	if observed.PubTime != 42 || observed.Size != 7 || observed.Data != "x" {
		t.Errorf("observed = %+v", observed)
	}
}

func TestOnDeliverDiscard(t *testing.T) {
	k, _, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	n2 := e2.NewNode("r", PrioExecBase)
	calls := 0
	sub := n2.Subscribe("t", nil, func(s *Sample) { calls++ })
	sub.OnDeliver = append(sub.OnDeliver, func(s *Sample) bool { return s.Activation%2 == 0 })
	pub := n1.NewPublisher("t")
	for i := 0; i < 4; i++ {
		i := i
		k.At(sim.Time(i)*sim.Time(sim.Millisecond), func() { pub.Publish(uint64(i), nil, 0) })
	}
	k.Run()
	if calls != 2 {
		t.Errorf("callback ran %d times, want 2", calls)
	}
	delivered, discarded := sub.Stats()
	if delivered != 2 || discarded != 2 {
		t.Errorf("stats = %d,%d", delivered, discarded)
	}
}

func TestCallbackCostDelaysCompletion(t *testing.T) {
	k, _, e1, _ := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase+1)
	n2 := e1.NewNode("r", PrioExecBase)
	var done sim.Time
	n2.Subscribe("t", func(*Sample) sim.Duration { return 5 * sim.Millisecond },
		func(s *Sample) { done = k.Now() })
	pub := n1.NewPublisher("t")
	k.At(0, func() { pub.Publish(0, nil, 0) })
	k.Run()
	// 80µs delivery + 5ms callback.
	if want := sim.Time(80*sim.Microsecond + 5*sim.Millisecond); done != want {
		t.Errorf("done at %v, want %v", done, want)
	}
}

func TestMultipleSubscribersEachGetCopy(t *testing.T) {
	k, _, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	ra := e1.NewNode("ra", PrioExecBase)
	rb := e2.NewNode("rb", PrioExecBase)
	// Each callback keeps its pointer only to compare identities, and
	// copies the sample to read it.
	var pa, pb *Sample
	var sa, sb Sample
	ra.Subscribe("t", nil, func(s *Sample) { pa, sa = s, *s })
	rb.Subscribe("t", nil, func(s *Sample) { pb, sb = s, *s })
	pub := n1.NewPublisher("t")
	k.At(0, func() { pub.Publish(0, "x", 0) })
	k.Run()
	if pa == nil || pb == nil {
		t.Fatal("not all subscribers received")
	}
	if pa == pb {
		t.Error("subscribers share a sample instance")
	}
	if sa.Data != "x" || sb.Data != "x" {
		t.Errorf("copies carry %v and %v, want x", sa.Data, sb.Data)
	}
	if sa.RecvTime == sb.RecvTime {
		t.Error("loopback and remote delivery should differ in time")
	}
}

func TestInjectReceiveBypassesHooks(t *testing.T) {
	k, _, _, e2 := newTestDomain()
	n2 := e2.NewNode("r", PrioExecBase)
	calls := 0
	sub := n2.Subscribe("t", nil, func(s *Sample) { calls++ })
	sub.OnDeliver = append(sub.OnDeliver, func(*Sample) bool { return false })
	k.At(0, func() { sub.InjectReceive(&Sample{Topic: "t", Data: "recovered"}) })
	k.Run()
	if calls != 1 {
		t.Errorf("callback ran %d times, want 1 (hooks bypassed)", calls)
	}
}

func TestDevicePublishesPeriodically(t *testing.T) {
	k, _, _, e2 := newTestDomain()
	d := e2.Domain
	dev := d.NewDevice("lidar", "points", 100*sim.Millisecond, vclock.Config{})
	dev.Payload = func(n uint64) (any, int) { return n, 100 }
	n2 := e2.NewNode("r", PrioExecBase)
	var times []sim.Time
	var seqs []uint64
	n2.Subscribe("points", nil, func(s *Sample) {
		times = append(times, k.Now())
		seqs = append(seqs, s.Activation)
	})
	dev.Start(0)
	k.RunUntil(sim.Time(450 * sim.Millisecond))
	if len(times) != 5 { // t = 0, 100, 200, 300, 400 ms
		t.Fatalf("received %d samples, want 5", len(times))
	}
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		if gap != 100*sim.Millisecond {
			t.Errorf("gap %d = %v, want 100ms", i, gap)
		}
		if seqs[i] != uint64(i) {
			t.Errorf("seq[%d] = %d", i, seqs[i])
		}
	}
}

func TestDeviceJitterShiftsActivations(t *testing.T) {
	k, _, _, e2 := newTestDomain()
	d := e2.Domain
	dev := d.NewDevice("lidar", "points", 100*sim.Millisecond, vclock.Config{})
	dev.Jitter = sim.Constant(3 * sim.Millisecond)
	n2 := e2.NewNode("r", PrioExecBase)
	var first sim.Time
	n2.Subscribe("points", nil, func(s *Sample) {
		if first == 0 {
			first = k.Now()
		}
	})
	dev.Start(0)
	k.RunUntil(sim.Time(50 * sim.Millisecond))
	// 3ms jitter + 500µs net + 30µs stack.
	if want := sim.Time(3*sim.Millisecond + 530*sim.Microsecond); first != want {
		t.Errorf("first delivery at %v, want %v", first, want)
	}
}

func TestDeviceStop(t *testing.T) {
	k, _, _, e2 := newTestDomain()
	d := e2.Domain
	dev := d.NewDevice("lidar", "points", 10*sim.Millisecond, vclock.Config{})
	n2 := e2.NewNode("r", PrioExecBase)
	count := 0
	n2.Subscribe("points", nil, func(s *Sample) { count++ })
	dev.Start(0)
	k.At(sim.Time(35*sim.Millisecond), dev.Stop)
	k.RunUntil(sim.Time(200 * sim.Millisecond))
	if count != 4 { // 0,10,20,30
		t.Errorf("count = %d, want 4", count)
	}
}

func TestSrcTimestampUsesLocalClock(t *testing.T) {
	k := sim.NewKernel()
	d := NewDomain(k, sim.NewRNG(9))
	e1 := d.NewECU("e1", 2, vclock.Config{Epsilon: 50 * sim.Microsecond, DriftStep: 50 * sim.Microsecond})
	n1 := e1.NewNode("s", PrioExecBase)
	pub := n1.NewPublisher("t")
	var s Sample
	published := false
	pub.OnPublish = append(pub.OnPublish, func(p *Sample) { s, published = *p, true })
	k.At(sim.Time(5*sim.Second), func() { pub.Publish(0, nil, 0) })
	k.Run()
	if !published {
		t.Fatal("no sample")
	}
	diff := s.SrcTimestamp.Sub(s.PubTime)
	if diff == 0 {
		t.Log("offset happened to be zero (acceptable but unlikely)")
	}
	if diff > 50*sim.Microsecond || diff < -50*sim.Microsecond {
		t.Errorf("timestamp offset %v exceeds ε", diff)
	}
}

func TestLifespanDropsStaleSamples(t *testing.T) {
	k, d, e1, e2 := newTestDomain()
	// A slow link: 30 ms latency exceeds a 10 ms lifespan.
	d.SetLink("ecu1", "ecu2", netsim.Config{BCRT: 30 * sim.Millisecond})
	n1 := e1.NewNode("s", PrioExecBase)
	n2 := e2.NewNode("r", PrioExecBase)
	calls := 0
	sub := n2.Subscribe("t", nil, func(s *Sample) { calls++ })
	sub.Lifespan = 10 * sim.Millisecond
	pub := n1.NewPublisher("t")
	k.At(0, func() { pub.Publish(0, nil, 0) })
	k.Run()
	if calls != 0 {
		t.Error("stale sample reached the application")
	}
	if sub.Expired() != 1 {
		t.Errorf("expired = %d, want 1", sub.Expired())
	}
	// Fresh samples pass.
	sub.Lifespan = 100 * sim.Millisecond
	k.At(k.Now()+1, func() { pub.Publish(1, nil, 0) })
	k.Run()
	if calls != 1 || sub.Expired() != 1 {
		t.Errorf("calls=%d expired=%d after loosening lifespan", calls, sub.Expired())
	}
}

func TestDropOnWireLosesTransmission(t *testing.T) {
	k, _, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	n2 := e2.NewNode("r", PrioExecBase)
	calls := 0
	n2.Subscribe("t", nil, func(s *Sample) { calls++ })
	pub := n1.NewPublisher("t")
	published := 0
	pub.OnPublish = append(pub.OnPublish, func(*Sample) { published++ })
	pub.DropOnWire = append(pub.DropOnWire, func(s *Sample) bool { return s.Activation == 1 })
	for i := 0; i < 3; i++ {
		act := uint64(i)
		k.At(sim.Time(i)*sim.Time(sim.Millisecond), func() { pub.Publish(act, nil, 0) })
	}
	k.Run()
	if published != 3 {
		t.Errorf("published = %d, want 3 (publication event happens)", published)
	}
	if calls != 2 {
		t.Errorf("delivered = %d, want 2 (one lost on the wire)", calls)
	}
}

func TestSampleString(t *testing.T) {
	s := &Sample{Topic: "t", Activation: 3, SrcTimestamp: sim.Time(sim.Millisecond)}
	if s.String() != "t#3@1ms" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestDeliverLocalRunsHooksAndCallback(t *testing.T) {
	k, _, _, e2 := newTestDomain()
	n := e2.NewNode("r", PrioExecBase)
	hooks, calls := 0, 0
	sub := n.Subscribe("t", nil, func(s *Sample) { calls++ })
	sub.OnDeliver = append(sub.OnDeliver, func(*Sample) bool { hooks++; return true })
	k.At(0, func() { sub.DeliverLocal(&Sample{Topic: "t", Activation: 1}) })
	k.Run()
	if hooks != 1 || calls != 1 {
		t.Errorf("hooks=%d calls=%d, want 1,1", hooks, calls)
	}
	// A vetoing hook discards before the callback.
	sub.OnDeliver = append(sub.OnDeliver, func(*Sample) bool { return false })
	k.At(k.Now()+1, func() { sub.DeliverLocal(&Sample{Topic: "t", Activation: 2}) })
	k.Run()
	if calls != 1 {
		t.Errorf("vetoed DeliverLocal reached the callback")
	}
	if _, discarded := sub.Stats(); discarded != 1 {
		t.Errorf("discarded = %d, want 1", discarded)
	}
}

func TestDomainAccessors(t *testing.T) {
	k, d, e1, _ := newTestDomain()
	if d.Kernel() != k || d.RNG() == nil {
		t.Error("domain accessors wrong")
	}
	if len(d.ECUs()) != 2 {
		t.Errorf("ECUs = %d", len(d.ECUs()))
	}
	n := e1.NewNode("x", PrioExecBase)
	if len(e1.Nodes()) == 0 {
		t.Error("Nodes() empty")
	}
	sub := n.Subscribe("t", nil, nil)
	if sub.Node() != n {
		t.Error("Node() wrong")
	}
}
