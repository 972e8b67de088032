package monitor

import (
	"testing"

	"chainmon/internal/dds"
	"chainmon/internal/netsim"
	"chainmon/internal/sim"
	"chainmon/internal/vclock"
	"chainmon/internal/weaklyhard"
)

// testRig is a deterministic two-node pipeline on one ECU:
// producer --"in"--> worker --"out"--> sink.
// The worker's callback cost is controlled per activation.
type testRig struct {
	k        *sim.Kernel
	domain   *dds.Domain
	ecu      *dds.ECU
	producer *dds.Node
	worker   *dds.Node
	sink     *dds.Node

	inPub   *dds.Publisher
	workSub *dds.Subscription
	outPub  *dds.Publisher
	sinkSub *dds.Subscription

	mon *LocalMonitor

	costs    map[uint64]sim.Duration // worker cost per activation
	defCost  sim.Duration
	received []uint64 // activations seen at sink
	sinkData map[uint64]any
}

func newTestRig() *testRig {
	k := sim.NewKernel()
	d := dds.NewDomain(k, sim.NewRNG(1))
	d.KsoftirqCost = sim.Constant(0)
	d.DeliverCost = sim.Constant(0)
	d.Loopback = netsim.Config{BCRT: 10 * sim.Microsecond}
	ecu := d.NewECU("ecu", 4, vclock.Config{})
	ecu.Proc.CtxSwitch = sim.Constant(0)
	ecu.Proc.Wakeup = sim.Constant(0)

	r := &testRig{
		k: k, domain: d, ecu: ecu,
		producer: ecu.NewNode("producer", dds.PrioExecBase+2),
		worker:   ecu.NewNode("worker", dds.PrioExecBase+1),
		sink:     ecu.NewNode("sink", dds.PrioExecBase),
		costs:    make(map[uint64]sim.Duration),
		defCost:  1 * sim.Millisecond,
		sinkData: make(map[uint64]any),
	}
	r.inPub = r.producer.NewPublisher("in")
	r.outPub = r.worker.NewPublisher("out")
	r.workSub = r.worker.Subscribe("in",
		func(s *dds.Sample) sim.Duration { return r.cost(s.Activation) },
		func(s *dds.Sample) { r.outPub.Publish(s.Activation, s.Data, 0) },
	)
	r.sinkSub = r.sink.Subscribe("out", nil, func(s *dds.Sample) {
		r.received = append(r.received, s.Activation)
		r.sinkData[s.Activation] = s.Data
	})
	r.mon = NewLocalMonitor(ecu)
	r.mon.PostCost = sim.Constant(5 * sim.Microsecond)
	r.mon.ScanCost = sim.Constant(10 * sim.Microsecond)
	return r
}

func (r *testRig) cost(act uint64) sim.Duration {
	if c, ok := r.costs[act]; ok {
		return c
	}
	return r.defCost
}

// produce publishes activations 0..n-1 with the given period.
func (r *testRig) produce(n int, period sim.Duration) {
	for i := 0; i < n; i++ {
		act := uint64(i)
		r.k.At(sim.Time(i)*sim.Time(period), func() { r.inPub.Publish(act, act, 0) })
	}
}

// segment registers the worker receive→publish local segment.
func (r *testRig) segment(dmon sim.Duration, c weaklyhard.Constraint, h Handler) *LocalSegment {
	seg := r.mon.AddSegment(SegmentConfig{
		Name:        "worker",
		DMon:        dmon,
		DEx:         1 * sim.Millisecond,
		Period:      100 * sim.Millisecond,
		Constraint:  c,
		Handler:     h,
		HandlerCost: sim.Constant(20 * sim.Microsecond),
	})
	seg.StartOnDeliver(r.workSub)
	seg.EndOnPublish(r.outPub)
	return seg
}

func TestLocalSegmentOKPath(t *testing.T) {
	r := newTestRig()
	seg := r.segment(50*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil)
	r.produce(5, 100*sim.Millisecond)
	r.k.Run()

	ok, rec, miss := seg.Stats().Counts()
	if ok != 5 || rec != 0 || miss != 0 {
		t.Fatalf("counts = %d,%d,%d, want 5,0,0", ok, rec, miss)
	}
	if len(r.received) != 5 {
		t.Fatalf("sink received %d, want 5", len(r.received))
	}
	// Latency = callback cost + loopback delivery of the start event.
	lat := seg.Stats().Latencies()
	if lat.Len() != 5 {
		t.Fatalf("latency samples = %d", lat.Len())
	}
	if lat.Max() > float64(2*sim.Millisecond) || lat.Min() < float64(1*sim.Millisecond) {
		t.Errorf("latency range [%v,%v] implausible",
			sim.Duration(lat.Min()), sim.Duration(lat.Max()))
	}
	if seg.Counter().Violated() {
		t.Error("counter violated without misses")
	}
}

func TestLocalSegmentTimeoutPropagates(t *testing.T) {
	r := newTestRig()
	var excCtx *ExceptionContext
	seg := r.segment(50*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5},
		func(ctx *ExceptionContext) *Recovery { excCtx = ctx; return nil })
	r.costs[2] = 80 * sim.Millisecond // activation 2 exceeds the 50 ms deadline
	r.produce(5, 200*sim.Millisecond)
	r.k.Run()

	ok, rec, miss := seg.Stats().Counts()
	if ok != 4 || rec != 0 || miss != 1 {
		t.Fatalf("counts = %d,%d,%d, want 4,0,1", ok, rec, miss)
	}
	if excCtx == nil {
		t.Fatal("handler not called")
	}
	if excCtx.Activation != 2 || excCtx.Propagated {
		t.Errorf("ctx = %+v", excCtx)
	}
	// Propagation by omission: the late publication of activation 2 is
	// skipped, so the sink must not see it.
	for _, a := range r.received {
		if a == 2 {
			t.Error("sink received the late publication of a missed activation")
		}
	}
	if len(r.received) != 4 {
		t.Errorf("sink received %d, want 4", len(r.received))
	}
	_, skipped := r.outPub.Stats()
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	// The miss is recorded in the (m,k) window.
	_, misses, _ := seg.Counter().Totals()
	if misses != 1 {
		t.Errorf("recorded misses = %d, want 1", misses)
	}
}

func TestLocalSegmentRecoveryPublishesSubstitute(t *testing.T) {
	r := newTestRig()
	seg := r.segment(50*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5},
		func(ctx *ExceptionContext) *Recovery {
			return &Recovery{Data: "substitute"}
		})
	r.costs[1] = 80 * sim.Millisecond
	r.produce(3, 200*sim.Millisecond)
	r.k.Run()

	ok, rec, miss := seg.Stats().Counts()
	if ok != 2 || rec != 1 || miss != 0 {
		t.Fatalf("counts = %d,%d,%d, want 2,1,0", ok, rec, miss)
	}
	if len(r.received) != 3 {
		t.Fatalf("sink received %d, want 3 (incl. recovery)", len(r.received))
	}
	if r.sinkData[1] != "substitute" {
		t.Errorf("sink data for act 1 = %v, want substitute", r.sinkData[1])
	}
	// Recovery must not count as a miss.
	_, misses, _ := seg.Counter().Totals()
	if misses != 0 {
		t.Errorf("recorded misses = %d, want 0", misses)
	}
	// The late regular publication was skipped.
	_, skipped := r.outPub.Stats()
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
}

func TestLocalExceptionTimingBounds(t *testing.T) {
	r := newTestRig()
	seg := r.segment(50*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 2}, nil)
	r.costs[0] = 200 * sim.Millisecond
	r.produce(1, 100*sim.Millisecond)
	r.k.Run()

	res := seg.Stats().Resolutions()
	if len(res) != 1 {
		t.Fatalf("resolutions = %d", len(res))
	}
	x := res[0]
	if !x.Exception || x.Status != StatusMissed {
		t.Fatalf("resolution = %+v", x)
	}
	// Latency is bounded: dMon (50ms) + scan (10µs) + handler (20µs);
	// allow some slack for event posting.
	lo := 50 * sim.Millisecond
	hi := 50*sim.Millisecond + 100*sim.Microsecond
	if x.Latency < lo || x.Latency > hi {
		t.Errorf("exception latency %v outside [%v,%v]", x.Latency, lo, hi)
	}
	// Detection latency: deadline → handler entry = scan cost (10µs).
	if x.DetectionLatency <= 0 || x.DetectionLatency > 50*sim.Microsecond {
		t.Errorf("detection latency %v implausible", x.DetectionLatency)
	}
}

func TestFixedProcessingOrderDelaysSecondSegment(t *testing.T) {
	// Two segments with the same start event and deadline (the objects and
	// ground segments of the evaluation): the segment registered second is
	// handled after the first, so its handler entry is delayed (Fig. 10).
	r := newTestRig()
	segA := r.mon.AddSegment(SegmentConfig{
		Name: "objects", DMon: 50 * sim.Millisecond, Period: 100 * sim.Millisecond,
		Constraint:  weaklyhard.Constraint{M: 1, K: 2},
		HandlerCost: sim.Constant(30 * sim.Microsecond),
	})
	segA.StartOnDeliver(r.workSub)
	segA.EndOnPublish(r.outPub)
	segB := r.mon.AddSegment(SegmentConfig{
		Name: "ground", DMon: 50 * sim.Millisecond, Period: 100 * sim.Millisecond,
		Constraint:  weaklyhard.Constraint{M: 1, K: 2},
		HandlerCost: sim.Constant(30 * sim.Microsecond),
	})
	segB.StartOnDeliver(r.workSub)
	segB.EndOnPublish(r.outPub)

	r.costs[0] = 200 * sim.Millisecond
	r.produce(1, 100*sim.Millisecond)
	r.k.Run()

	ra := segA.Stats().Resolutions()
	rb := segB.Stats().Resolutions()
	if len(ra) != 1 || len(rb) != 1 {
		t.Fatalf("resolutions = %d,%d", len(ra), len(rb))
	}
	if !ra[0].Exception || !rb[0].Exception {
		t.Fatal("both segments should raise exceptions")
	}
	gap := rb[0].HandlerEntry.Sub(ra[0].HandlerEntry)
	if gap < 30*sim.Microsecond {
		t.Errorf("second segment handler entry gap %v, want ≥ handler cost of first", gap)
	}
}

func TestEndOnDeliverDiscardsLateEnd(t *testing.T) {
	// Segment ends at the sink's reception (the rviz case). After an
	// exception, the late reception must be discarded.
	r := newTestRig()
	seg := r.mon.AddSegment(SegmentConfig{
		Name: "to-sink", DMon: 50 * sim.Millisecond, Period: 100 * sim.Millisecond,
		Constraint:  weaklyhard.Constraint{M: 2, K: 4},
		HandlerCost: sim.Constant(10 * sim.Microsecond),
	})
	seg.StartOnDeliver(r.workSub)
	seg.EndOnDeliver(r.sinkSub)

	r.costs[0] = 200 * sim.Millisecond
	r.produce(2, 300*sim.Millisecond)
	r.k.Run()

	ok, _, miss := seg.Stats().Counts()
	if ok != 1 || miss != 1 {
		t.Fatalf("counts ok=%d miss=%d, want 1,1", ok, miss)
	}
	// The sink's subscription discarded the late end reception of act 0.
	_, discarded := r.sinkSub.Stats()
	if discarded != 1 {
		t.Errorf("discarded = %d, want 1", discarded)
	}
	// Activation 1 still went through.
	found := false
	for _, a := range r.received {
		if a == 1 {
			found = true
		}
		if a == 0 {
			t.Error("sink callback ran for the excepted activation")
		}
	}
	if !found {
		t.Error("activation 1 not received")
	}
}

func TestPropagateIntoInvokesHandlerDirectly(t *testing.T) {
	r := newTestRig()
	var ctxs []*ExceptionContext
	seg := r.segment(50*sim.Millisecond, weaklyhard.Constraint{M: 2, K: 4},
		func(ctx *ExceptionContext) *Recovery {
			ctxs = append(ctxs, ctx)
			if ctx.Propagated {
				return &Recovery{Data: "prop-recovery"}
			}
			return nil
		})
	// Activation 0 never starts (no sample published); the preceding
	// remote segment propagates the violation explicitly.
	r.k.At(0, func() { seg.PropagateInto(0) })
	// Activation 1 runs normally.
	r.k.At(sim.Time(100*sim.Millisecond), func() { r.inPub.Publish(1, 1, 0) })
	r.k.Run()

	if len(ctxs) != 1 || !ctxs[0].Propagated || ctxs[0].Activation != 0 {
		t.Fatalf("handler contexts = %+v", ctxs)
	}
	ok, rec, miss := seg.Stats().Counts()
	if ok != 1 || rec != 1 || miss != 0 {
		t.Fatalf("counts = %d,%d,%d, want 1,1,0", ok, rec, miss)
	}
	// The propagated recovery published substitute data for act 0.
	if r.sinkData[0] != "prop-recovery" {
		t.Errorf("sink data for act 0 = %v", r.sinkData[0])
	}
}

func TestPropagateIntoWithoutRecoveryForwards(t *testing.T) {
	r := newTestRig()
	seg := r.segment(50*sim.Millisecond, weaklyhard.Constraint{M: 2, K: 4}, nil)
	next := &recordingPropagator{}
	seg.PropagateTo(next)
	r.k.At(0, func() { seg.PropagateInto(0) })
	r.k.Run()
	if len(next.acts) != 1 || next.acts[0] != 0 {
		t.Fatalf("forwarded = %v, want [0]", next.acts)
	}
	_, _, miss := seg.Stats().Counts()
	if miss != 1 {
		t.Errorf("miss = %d, want 1", miss)
	}
}

type recordingPropagator struct{ acts []uint64 }

func (p *recordingPropagator) PropagateInto(act uint64) { p.acts = append(p.acts, act) }

func TestWeaklyHardWindowAcrossActivations(t *testing.T) {
	r := newTestRig()
	seg := r.segment(50*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 3}, nil)
	// Activations 1 and 2 miss → window of 3 has 2 misses → violation.
	r.costs[1] = 80 * sim.Millisecond
	r.costs[2] = 80 * sim.Millisecond
	r.produce(5, 200*sim.Millisecond)
	r.k.Run()
	_, misses, violations := seg.Counter().Totals()
	if misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
	if violations == 0 {
		t.Error("(1,3) constraint should have been violated")
	}
}

func TestMonitorOverheadsCollected(t *testing.T) {
	r := newTestRig()
	r.segment(50*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil)
	r.produce(10, 100*sim.Millisecond)
	r.k.Run()
	o := r.mon.Overheads()
	if o.StartPost.Len() != 10 {
		t.Errorf("start posts = %d, want 10", o.StartPost.Len())
	}
	if o.EndPost.Len() != 10 {
		t.Errorf("end posts = %d, want 10", o.EndPost.Len())
	}
	if o.MonLatency.Len() != 10 {
		t.Errorf("monitor latencies = %d, want 10", o.MonLatency.Len())
	}
	if o.MonExec.Len() == 0 {
		t.Error("no monitor execution samples")
	}
	for _, row := range o.Rows() {
		if row == "" {
			t.Error("empty overhead row")
		}
	}
}

func TestAddSegmentValidation(t *testing.T) {
	r := newTestRig()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for DMon=0")
		}
	}()
	r.mon.AddSegment(SegmentConfig{Name: "bad"})
}

func TestStatusString(t *testing.T) {
	if StatusOK.String() != "ok" || StatusRecovered.String() != "recovered" ||
		StatusMissed.String() != "missed" || Status(9).String() == "" {
		t.Error("status strings wrong")
	}
}

func TestReorderBufSkipsPermanentGaps(t *testing.T) {
	var got []uint64
	b := newReorderBuf(func(r Resolution) { got = append(got, r.Activation) })
	b.add(Resolution{Activation: 0})
	// Activation 1 never resolves; 2..70 do.
	for a := uint64(2); a <= 70; a++ {
		b.add(Resolution{Activation: a})
	}
	if len(got) < 60 {
		t.Fatalf("delivered %d resolutions; gap not skipped", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("out-of-order delivery")
		}
	}
}

// TestReorderBufDeliversLateGapOnce: an activation whose slot the window
// already skipped (here 1, resolving as a miss after 2…66) must still reach
// the sink, exactly once — a parked late verdict would be a silently lost
// deadline miss.
func TestReorderBufDeliversLateGapOnce(t *testing.T) {
	delivered := map[uint64]int{}
	var missed []uint64
	b := newReorderBuf(func(r Resolution) {
		delivered[r.Activation]++
		if r.Status == StatusMissed {
			missed = append(missed, r.Activation)
		}
	})
	b.add(Resolution{Activation: 0})
	for a := uint64(2); a <= 66; a++ {
		b.add(Resolution{Activation: a})
	}
	b.add(Resolution{Activation: 1, Status: StatusMissed})
	for a := uint64(67); a <= 200; a++ {
		b.add(Resolution{Activation: a})
	}
	for a := uint64(0); a <= 200; a++ {
		if n := delivered[a]; n != 1 {
			t.Errorf("activation %d delivered %d times", a, n)
		}
	}
	if len(missed) != 1 || missed[0] != 1 {
		t.Errorf("missed verdicts delivered = %v, want [1]", missed)
	}
}

func TestReorderBufStartsMidStream(t *testing.T) {
	var got []uint64
	b := newReorderBuf(func(r Resolution) { got = append(got, r.Activation) })
	b.add(Resolution{Activation: 42})
	b.add(Resolution{Activation: 43})
	if len(got) != 2 || got[0] != 42 {
		t.Fatalf("got = %v", got)
	}
	// An activation older than the first one seen is delivered, not parked.
	b.add(Resolution{Activation: 41})
	if len(got) != 3 || got[2] != 41 {
		t.Fatalf("got = %v, want 41 delivered after 42, 43", got)
	}
}

// TestSkipTablesBounded pins that a skip entry whose late publication never
// comes is dropped at the 4096-activation bookkeeping horizon: after 3·4096
// activations that all expire without publishing, the late publication of
// the last one is vetoed exactly once, and one from beyond the horizon is
// published.
func TestSkipTablesBounded(t *testing.T) {
	r := newTestRig()
	seg := r.segment(5*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil)
	const frames = 3 * 4096
	for i := 0; i < frames; i++ {
		act := uint64(i)
		r.k.At(sim.Time(i)*sim.Time(10*sim.Millisecond), func() { seg.StartInjected(act) })
	}
	r.k.Run()
	if _, _, miss := seg.Stats().Counts(); miss != frames {
		t.Fatalf("missed = %d, want all %d", miss, frames)
	}
	last := uint64(frames - 1)
	if r.outPub.Publish(last, nil, 0) {
		t.Errorf("late publication of activation %d went out, want it vetoed", last)
	}
	if !r.outPub.Publish(last, nil, 0) {
		t.Errorf("second publication of activation %d vetoed, want one veto per miss", last)
	}
	if old := last - 4096; !r.outPub.Publish(old, nil, 0) {
		t.Errorf("publication of activation %d, beyond the horizon, vetoed", old)
	}
}
