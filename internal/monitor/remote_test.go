package monitor

import (
	"testing"

	"chainmon/internal/dds"
	"chainmon/internal/netsim"
	"chainmon/internal/sim"
	"chainmon/internal/vclock"
	"chainmon/internal/weaklyhard"
)

// remoteRig is a deterministic two-ECU pipeline: a sender node on ecu1
// publishes "data" periodically (activations scheduled by kernel timers so
// tests can drop or delay individual activations), a receiver node on ecu2
// subscribes.
type remoteRig struct {
	k        *sim.Kernel
	domain   *dds.Domain
	ecu1     *dds.ECU
	ecu2     *dds.ECU
	sender   *dds.Node
	receiver *dds.Node
	pub      *dds.Publisher
	sub      *dds.Subscription
	lm       *LocalMonitor

	received []uint64
	recData  map[uint64]any
}

const rigPeriod = 100 * sim.Millisecond

func newRemoteRig() *remoteRig {
	k := sim.NewKernel()
	d := dds.NewDomain(k, sim.NewRNG(2))
	d.KsoftirqCost = sim.Constant(0)
	d.DeliverCost = sim.Constant(0)
	d.InterECU = netsim.Config{BCRT: 1 * sim.Millisecond}
	ecu1 := d.NewECU("ecu1", 4, vclock.Config{})
	ecu2 := d.NewECU("ecu2", 4, vclock.Config{})
	for _, e := range []*dds.ECU{ecu1, ecu2} {
		e.Proc.CtxSwitch = sim.Constant(0)
		e.Proc.Wakeup = sim.Constant(0)
	}
	r := &remoteRig{
		k: k, domain: d, ecu1: ecu1, ecu2: ecu2,
		sender:   ecu1.NewNode("sender", dds.PrioExecBase),
		receiver: ecu2.NewNode("receiver", dds.PrioExecBase),
		recData:  make(map[uint64]any),
	}
	r.pub = r.sender.NewPublisher("data")
	r.sub = r.receiver.Subscribe("data", nil, func(s *dds.Sample) {
		r.received = append(r.received, s.Activation)
		r.recData[s.Activation] = s.Data
	})
	r.lm = NewLocalMonitor(ecu2)
	r.lm.ScanCost = sim.Constant(5 * sim.Microsecond)
	return r
}

// send schedules activation act at its periodic slot plus delay; skip
// activations simply have no send scheduled.
func (r *remoteRig) send(act uint64, delay sim.Duration) {
	r.k.At(sim.Time(act)*sim.Time(rigPeriod)+sim.Time(delay), func() {
		r.pub.Publish(act, act, 0)
	})
}

func (r *remoteRig) monitor(dmon sim.Duration, c weaklyhard.Constraint, h Handler, v RemoteVariant) *RemoteMonitor {
	m := NewRemoteMonitor(r.sub, SegmentConfig{
		Name:        "s-remote",
		DMon:        dmon,
		Period:      rigPeriod,
		Constraint:  c,
		Handler:     h,
		HandlerCost: sim.Constant(10 * sim.Microsecond),
	}, v, r.lm)
	m.TimeoutRoutineCost = sim.Constant(5 * sim.Microsecond)
	return m
}

func TestRemoteAllOnTime(t *testing.T) {
	r := newRemoteRig()
	m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil, VariantMonitorThread)
	for a := uint64(0); a < 10; a++ {
		r.send(a, 0)
	}
	r.k.RunUntil(sim.Time(1005 * sim.Millisecond))
	ok, rec, miss := m.Stats().Counts()
	if ok != 10 || rec != 0 || miss != 0 {
		t.Fatalf("counts = %d,%d,%d, want 10,0,0", ok, rec, miss)
	}
	if len(r.received) != 10 {
		t.Fatalf("received %d, want 10", len(r.received))
	}
	// Remote segment latency = network BCRT (1 ms).
	lat := m.Stats().Latencies()
	if lat.Median() != float64(1*sim.Millisecond) {
		t.Errorf("median latency = %v, want 1ms", sim.Duration(lat.Median()))
	}
}

func TestRemoteDetectsLostSample(t *testing.T) {
	r := newRemoteRig()
	var ctxs []*ExceptionContext
	m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5},
		func(ctx *ExceptionContext) *Recovery { ctxs = append(ctxs, ctx); return nil },
		VariantMonitorThread)
	for a := uint64(0); a < 6; a++ {
		if a == 3 {
			continue // activation 3 is lost entirely
		}
		r.send(a, 0)
	}
	r.k.RunUntil(sim.Time(605 * sim.Millisecond))
	ok, _, miss := m.Stats().Counts()
	if ok != 5 || miss != 1 {
		t.Fatalf("counts ok=%d miss=%d, want 5,1", ok, miss)
	}
	if len(ctxs) != 1 || ctxs[0].Activation != 3 {
		t.Fatalf("handler contexts = %+v", ctxs)
	}
	// The exception must be raised near the programmed deadline:
	// src(2) + period + dMon = 200ms + 100ms + 10ms = 310ms.
	res := m.Stats().Resolutions()
	var exc *Resolution
	for i := range res {
		if res[i].Exception {
			exc = &res[i]
		}
	}
	if exc == nil {
		t.Fatal("no exception resolution")
	}
	want := sim.Time(310 * sim.Millisecond)
	slack := 50 * sim.Microsecond
	if exc.End < want || exc.End > want.Add(slack) {
		t.Errorf("exception at %v, want ≈%v", exc.End, want)
	}
}

func TestRemoteDetectsConsecutiveMisses(t *testing.T) {
	// The decisive advantage over inter-arrival monitoring: several
	// consecutive losses each raise their own timely exception.
	r := newRemoteRig()
	m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 3, K: 8}, nil, VariantMonitorThread)
	for a := uint64(0); a < 8; a++ {
		if a >= 2 && a <= 4 {
			continue // 3 consecutive losses
		}
		r.send(a, 0)
	}
	r.k.RunUntil(sim.Time(805 * sim.Millisecond))
	ok, _, miss := m.Stats().Counts()
	if ok != 5 || miss != 3 {
		t.Fatalf("counts ok=%d miss=%d, want 5,3", ok, miss)
	}
	// Deadlines escalate period-by-period from the last received source
	// timestamp: src(1)+P+dMon = 210 ms, then 310, 410 ms.
	var excTimes []sim.Time
	for _, res := range m.Stats().Resolutions() {
		if res.Exception {
			excTimes = append(excTimes, res.End)
		}
	}
	if len(excTimes) != 3 {
		t.Fatalf("exceptions = %d, want 3", len(excTimes))
	}
	for i, want := range []sim.Time{
		sim.Time(210 * sim.Millisecond),
		sim.Time(310 * sim.Millisecond),
		sim.Time(410 * sim.Millisecond),
	} {
		if excTimes[i] < want || excTimes[i] > want.Add(sim.Millisecond) {
			t.Errorf("exception %d at %v, want ≈%v", i, excTimes[i], want)
		}
	}
}

func TestRemoteDiscardsLateSample(t *testing.T) {
	r := newRemoteRig()
	m := r.monitor(20*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil, VariantMonitorThread)
	r.send(0, 0)
	r.send(1, 0)
	r.send(2, 50*sim.Millisecond) // arrives 50ms late: after the 20ms deadline
	r.send(3, 0)
	r.k.RunUntil(sim.Time(405 * sim.Millisecond))
	ok, _, miss := m.Stats().Counts()
	if ok != 3 || miss != 1 {
		t.Fatalf("counts ok=%d miss=%d, want 3,1", ok, miss)
	}
	if m.LateDiscards() != 1 {
		t.Errorf("late discards = %d, want 1", m.LateDiscards())
	}
	// The application callback must not see the late activation 2
	// (receive event skipped).
	for _, a := range r.received {
		if a == 2 {
			t.Error("late sample reached the application")
		}
	}
}

func TestRemoteRecoveryIssuesReceiveEvent(t *testing.T) {
	r := newRemoteRig()
	m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5},
		func(ctx *ExceptionContext) *Recovery { return &Recovery{Data: "held-over"} },
		VariantMonitorThread)
	r.send(0, 0)
	r.send(1, 0)
	// activation 2 lost
	r.send(3, 0)
	r.k.RunUntil(sim.Time(405 * sim.Millisecond))
	ok, rec, miss := m.Stats().Counts()
	if ok != 3 || rec != 1 || miss != 0 {
		t.Fatalf("counts = %d,%d,%d, want 3,1,0", ok, rec, miss)
	}
	if r.recData[2] != "held-over" {
		t.Errorf("recovered data = %v", r.recData[2])
	}
	// Recovery does not count as a miss.
	_, misses, _ := m.Counter().Totals()
	if misses != 0 {
		t.Errorf("misses = %d, want 0", misses)
	}
}

func TestRemotePropagatesToNextSegment(t *testing.T) {
	r := newRemoteRig()
	m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil, VariantMonitorThread)
	next := &recordingPropagator{}
	m.PropagateTo(next)
	r.send(0, 0)
	// 1 lost
	r.send(2, 0)
	r.k.RunUntil(sim.Time(305 * sim.Millisecond))
	if len(next.acts) != 1 || next.acts[0] != 1 {
		t.Fatalf("propagated = %v, want [1]", next.acts)
	}
}

func TestRemoteStartDetectsFirstLoss(t *testing.T) {
	r := newRemoteRig()
	m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil, VariantMonitorThread)
	// Arm before traffic: activation 0 expected by local-clock 30 ms.
	m.Start(0, sim.Time(30*sim.Millisecond))
	// activation 0 lost entirely; 1 and 2 arrive.
	r.send(1, 0)
	r.send(2, 0)
	r.k.RunUntil(sim.Time(305 * sim.Millisecond))
	ok, _, miss := m.Stats().Counts()
	if ok != 2 || miss != 1 {
		t.Fatalf("counts ok=%d miss=%d, want 2,1", ok, miss)
	}
	res := m.Stats().Resolutions()
	if res[0].Activation != 0 || res[0].Status != StatusMissed {
		t.Fatalf("first resolution = %+v", res[0])
	}
}

func TestRemoteInOrderArrivalProvesLoss(t *testing.T) {
	// dMon ≥ period: activation 3's arrival proves activation 2 was lost
	// before 2's (long) deadline expires.
	r := newRemoteRig()
	m := r.monitor(150*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil, VariantMonitorThread)
	r.send(0, 0)
	r.send(1, 0)
	// 2 lost
	r.send(3, 0)
	r.k.RunUntil(sim.Time(545 * sim.Millisecond))
	ok, _, miss := m.Stats().Counts()
	if ok != 3 || miss != 1 {
		t.Fatalf("counts ok=%d miss=%d, want 3,1", ok, miss)
	}
	// The exception fires at activation 3's arrival (~301ms), before the
	// timer deadline of 2 (100+100+150 = 350ms).
	for _, res := range m.Stats().Resolutions() {
		if res.Exception && res.End > sim.Time(350*sim.Millisecond) {
			t.Errorf("exception too late: %v", res.End)
		}
	}
}

func TestRemoteDDSContextEntryDelayedUnderLoad(t *testing.T) {
	// Fig. 12: with the timeout routine in the middleware context, a
	// higher-priority interfering thread delays exception entry; the
	// monitor-thread variant is immune.
	entry := func(variant RemoteVariant) sim.Duration {
		r := newRemoteRig()
		m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 2, K: 5}, nil, variant)
		// Interfering load on ecu2 above middleware priority on all cores.
		for i := 0; i < 4; i++ {
			th := r.ecu2.Proc.NewThread("load", dds.PrioMiddle+10)
			r.ecu2.Proc.PeriodicLoad(th, "busy", 0, 3*sim.Millisecond, sim.Constant(2900*sim.Microsecond))
		}
		r.send(0, 0)
		r.send(1, 0)
		// 2 lost → exception
		r.send(3, 0)
		r.k.RunUntil(sim.Time(450 * sim.Millisecond))
		d := m.Stats().DetectionLatencies()
		if d.Len() == 0 {
			t.Fatalf("no detection latency for %v", variant)
		}
		return sim.Duration(d.Max())
	}
	dds := entry(VariantDDSContext)
	mon := entry(VariantMonitorThread)
	if dds <= mon {
		t.Errorf("dds-context entry %v should exceed monitor-thread %v under load", dds, mon)
	}
	if dds < 500*sim.Microsecond {
		t.Errorf("dds-context entry %v suspiciously small under saturating load", dds)
	}
	if mon > 100*sim.Microsecond {
		t.Errorf("monitor-thread entry %v too large", mon)
	}
}

func TestInterArrivalMissesConsecutiveLateArrivals(t *testing.T) {
	// The paper's core argument (Fig. 6): arrivals that are each within
	// t_max of the previous arrival but accumulate lateness are never
	// detected by inter-arrival monitoring.
	r := newRemoteRig()
	ia := NewInterArrivalMonitor(r.sub, 150*sim.Millisecond)
	// Ground truth: every activation after 0 is later than the previous by
	// 40 ms — by activation 5 the latency is 200 ms past nominal, far
	// beyond any sensible deadline, yet inter-arrival gaps stay at 140 ms.
	for a := uint64(0); a < 6; a++ {
		r.send(a, sim.Duration(a)*40*sim.Millisecond)
	}
	r.k.RunUntil(sim.Time(840 * sim.Millisecond))
	if n := len(ia.Detections()); n != 0 {
		t.Errorf("inter-arrival monitor fired %d times; accumulating lateness is invisible to it", n)
	}
	if ia.Arrivals() != 6 {
		t.Errorf("arrivals = %d", ia.Arrivals())
	}

	// The synchronization-based monitor detects every violation of the
	// same trace.
	r2 := newRemoteRig()
	m := r2.monitor(30*sim.Millisecond, weaklyhard.Constraint{M: 5, K: 6}, nil, VariantMonitorThread)
	for a := uint64(0); a < 6; a++ {
		r2.send(a, sim.Duration(a)*40*sim.Millisecond)
	}
	r2.k.RunUntil(sim.Time(825 * sim.Millisecond))
	_, _, miss := m.Stats().Counts()
	if miss < 4 {
		t.Errorf("sync-based monitor detected %d misses, want ≥4", miss)
	}
}

func TestInterArrivalDetectsFullStop(t *testing.T) {
	r := newRemoteRig()
	ia := NewInterArrivalMonitor(r.sub, 150*sim.Millisecond)
	detections := 0
	ia.OnDetect(func(sim.Time) { detections++ })
	r.send(0, 0)
	r.send(1, 0)
	// Traffic stops; run until 800 ms.
	r.k.RunUntil(sim.Time(800 * sim.Millisecond))
	// Timer expiry at ~251ms, then every 150 ms: ~251, 401, 551, 701.
	if detections < 3 {
		t.Errorf("detections = %d, want ≥3 after stream stops", detections)
	}
	if len(ia.Detections()) != detections {
		t.Errorf("callback/recorded mismatch")
	}
}

func TestRemoteMonitorValidation(t *testing.T) {
	r := newRemoteRig()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for missing period")
		}
	}()
	NewRemoteMonitor(r.sub, SegmentConfig{Name: "bad", DMon: sim.Millisecond}, VariantMonitorThread, r.lm)
}

func TestRemoteVariantString(t *testing.T) {
	if VariantMonitorThread.String() != "monitor-thread" || VariantDDSContext.String() != "dds-context" {
		t.Error("variant strings wrong")
	}
}

func TestChainTracksEndToEnd(t *testing.T) {
	// Remote segment → local segment chain: a lost sample propagates into
	// the local segment and counts exactly one chain violation.
	r := newRemoteRig()
	rm := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil, VariantMonitorThread)

	outPub := r.receiver.NewPublisher("out")
	r.sub.Callback = func(s *dds.Sample) { outPub.Publish(s.Activation, s.Data, 0) }
	r.sub.Cost = func(*dds.Sample) sim.Duration { return 2 * sim.Millisecond }

	ls := r.lm.AddSegment(SegmentConfig{
		Name: "s-local", DMon: 20 * sim.Millisecond, Period: rigPeriod,
		Constraint:  weaklyhard.Constraint{M: 1, K: 5},
		HandlerCost: sim.Constant(10 * sim.Microsecond),
	})
	ls.StartOnDeliver(r.sub)
	ls.EndOnPublish(outPub)
	rm.PropagateTo(ls)

	ch := NewChain("test", 40*sim.Millisecond, rigPeriod, weaklyhard.Constraint{M: 1, K: 5})
	ch.Append(rm).Append(ls)
	ch.Seal()

	for a := uint64(0); a < 6; a++ {
		if a == 2 {
			continue
		}
		r.send(a, 0)
	}
	r.k.RunUntil(sim.Time(605 * sim.Millisecond))

	exec, rec, viol := ch.Totals()
	if exec != 6 || rec != 0 || viol != 1 {
		t.Fatalf("chain totals = %d,%d,%d, want 6,0,1", exec, rec, viol)
	}
	if !ch.BudgetSatisfied() {
		t.Error("budget 10+20 ≤ 40 should be satisfied")
	}
	if !ch.ThroughputSatisfied() {
		t.Error("throughput should be satisfied")
	}
	if ch.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestChainSealValidation(t *testing.T) {
	ch := NewChain("c", sim.Second, sim.Second, weaklyhard.Constraint{M: 0, K: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Seal on empty chain should panic")
			}
		}()
		ch.Seal()
	}()
}

func TestRemoteMonitorTransparentToRetransmissions(t *testing.T) {
	// The paper: "the monitor works on a high level and is even transparent
	// to retransmissions of (partially) lost data e.g. over DDS". With a
	// reliable link, lost samples arrive late via retransmission; a
	// retransmission within the deadline resolves OK, one beyond it is
	// discarded like any late sample and the exception stands.
	run := func(retransmitDelay, dmon sim.Duration) (ok, miss int, discards uint64) {
		k := sim.NewKernel()
		d := dds.NewDomain(k, sim.NewRNG(7))
		d.KsoftirqCost = sim.Constant(0)
		d.DeliverCost = sim.Constant(0)
		d.SetLink("e1", "e2", netsim.Config{
			BCRT:            sim.Millisecond,
			LossProb:        0.2,
			RetransmitDelay: sim.Constant(retransmitDelay),
		})
		e1 := d.NewECU("e1", 2, vclock.Config{})
		e2 := d.NewECU("e2", 2, vclock.Config{})
		sender := e1.NewNode("s", dds.PrioExecBase)
		receiver := e2.NewNode("r", dds.PrioExecBase)
		pub := sender.NewPublisher("data")
		sub := receiver.Subscribe("data", nil, nil)
		lm := NewLocalMonitor(e2)
		m := NewRemoteMonitor(sub, SegmentConfig{
			Name: "rel", DMon: dmon, Period: rigPeriod,
			Constraint: weaklyhard.Constraint{M: 50, K: 50},
		}, VariantMonitorThread, lm)
		m.SetLastActivation(49)
		for i := 0; i < 50; i++ {
			act := uint64(i)
			k.At(sim.Time(act)*sim.Time(rigPeriod), func() { pub.Publish(act, nil, 0) })
		}
		horizon := sim.Time(52) * sim.Time(rigPeriod)
		k.At(horizon, m.Stop)
		k.RunUntil(horizon.Add(sim.Second))
		o, _, mi := m.Stats().Counts()
		return o, mi, m.LateDiscards()
	}

	// Fast retransmission (5 ms) within the 20 ms deadline: everything OK.
	ok, miss, _ := run(5*sim.Millisecond, 20*sim.Millisecond)
	if miss != 0 || ok != 50 {
		t.Errorf("fast retransmit: ok=%d miss=%d, want 50,0", ok, miss)
	}
	// Slow retransmission (50 ms) beyond the deadline: the lost samples
	// miss their deadline and the retransmitted copies are discarded.
	ok2, miss2, discards := run(50*sim.Millisecond, 20*sim.Millisecond)
	if miss2 == 0 {
		t.Error("slow retransmit: no misses despite late retransmissions")
	}
	if discards != uint64(miss2) {
		t.Errorf("late retransmitted samples discarded = %d, want %d (one per miss)", discards, miss2)
	}
	if ok2+miss2 != 50 {
		t.Errorf("accounting drifted: ok=%d miss=%d", ok2, miss2)
	}
}

// TestRemoteTimeoutAllocFree pins that, once warm, a remote timeout routine
// without a handler allocates nothing. No sample ever arrives, so each
// period fires the armed timer, dispatches the routine onto the monitor
// thread, resolves a miss and re-arms. An exception context built for a
// handler that is not there would cost one allocation per timeout.
func TestRemoteTimeoutAllocFree(t *testing.T) {
	r := newRemoteRig()
	m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil, VariantMonitorThread)
	m.Start(0, sim.Time(10*sim.Millisecond))
	var horizon sim.Time
	period := func() {
		horizon = horizon.Add(rigPeriod)
		r.k.RunUntil(horizon)
	}
	const warm, runs = 1000, 1000
	for i := 0; i < warm; i++ {
		period()
	}
	allocs := testing.AllocsPerRun(runs, period)
	// AllocsPerRun calls period once more before it counts.
	if want := warm + 1 + runs; len(m.Stats().Resolutions()) != want || m.Stats().Exceptions() != want {
		t.Fatalf("%d resolutions, %d exceptions, want a miss per period (%d)",
			len(m.Stats().Resolutions()), m.Stats().Exceptions(), want)
	}
	if allocs != 0 {
		t.Errorf("one remote timeout allocates %.0f times, want 0", allocs)
	}
}
