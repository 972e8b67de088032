package trace

import (
	"bytes"
	"strings"
	"testing"

	"chainmon/internal/dds"
	"chainmon/internal/netsim"
	"chainmon/internal/sim"
	"chainmon/internal/vclock"
)

func TestRecorderPairsStartEnd(t *testing.T) {
	k := sim.NewKernel()
	d := dds.NewDomain(k, sim.NewRNG(1))
	d.KsoftirqCost = sim.Constant(0)
	d.DeliverCost = sim.Constant(0)
	d.Loopback = netsim.Config{BCRT: 10 * sim.Microsecond}
	ecu := d.NewECU("e", 2, vclock.Config{})
	ecu.Proc.CtxSwitch = sim.Constant(0)
	ecu.Proc.Wakeup = sim.Constant(0)
	src := ecu.NewNode("src", dds.PrioExecBase+1)
	worker := ecu.NewNode("worker", dds.PrioExecBase)

	inPub := src.NewPublisher("in")
	outPub := worker.NewPublisher("out")
	sub := worker.Subscribe("in",
		func(*dds.Sample) sim.Duration { return 3 * sim.Millisecond },
		func(s *dds.Sample) { outPub.Publish(s.Activation, nil, 0) })

	rec := NewRecorder()
	rec.Segment(Span{Name: "worker", From: OnDeliver(sub), To: OnPublish(outPub)}, 1)

	for i := 0; i < 5; i++ {
		act := uint64(i)
		k.At(sim.Time(i)*sim.Time(10*sim.Millisecond), func() { inPub.Publish(act, nil, 0) })
	}
	k.Run()

	tr := rec.Trace()
	st := tr.Segment("worker")
	if st == nil {
		t.Fatal("segment missing")
	}
	if len(st.Latencies) != 5 {
		t.Fatalf("latencies = %d, want 5", len(st.Latencies))
	}
	for i, l := range st.Latencies {
		if l != 3*sim.Millisecond {
			t.Errorf("latency[%d] = %v, want 3ms", i, l)
		}
		if st.Activations[i] != uint64(i) {
			t.Errorf("activation[%d] = %d", i, st.Activations[i])
		}
	}
	if st.Propagation != 1 {
		t.Error("propagation factor lost")
	}
	if tr.Segment("nope") != nil {
		t.Error("unknown segment should be nil")
	}
}

func TestRecorderIgnoresEndWithoutStart(t *testing.T) {
	from, to := newPoint(), newPoint()
	to.note(5, 10, false) // never started
	from.note(6, 20, false)
	to.note(6, 25, false)
	to.note(6, 30, false) // duplicate end ignored
	from.note(7, 40, false)
	to.note(7, 35, false) // ended before it started
	rec := NewRecorder()
	rec.Segment(Span{Name: "s", From: from, To: to}, 0)
	st := rec.Trace().Segment("s")
	if len(st.Latencies) != 1 || st.Activations[0] != 6 || st.Latencies[0] != 5 {
		t.Fatalf("trace = %v at %v, want [5] at [6]", st.Latencies, st.Activations)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := &Trace{Segments: []*SegmentTrace{
		{Segment: "a", Activations: []uint64{0, 1}, Latencies: []sim.Duration{5, 7}, Propagation: 1},
		{Segment: "b", Activations: []uint64{0}, Latencies: []sim.Duration{9}},
	}}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != 2 || got.Segment("a").Latencies[1] != 7 || got.Segment("a").Propagation != 1 {
		t.Errorf("round trip lost data: %+v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := &Trace{Segments: []*SegmentTrace{
		{Segment: "a", Activations: []uint64{0, 2}, Latencies: []sim.Duration{5, 7}},
	}}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := got.Segment("a")
	if st == nil || len(st.Latencies) != 2 || st.Activations[1] != 2 || st.Latencies[1] != 7 {
		t.Errorf("round trip lost data: %+v", st)
	}
}

func TestCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"segment,activation\n",                 // wrong arity (header mismatch tolerated, row fails)
		"a,notanumber,5\n",                     // bad activation
		"a,1,notanumber\n",                     // bad latency
		"segment,activation,latency_ns\na,1\n", // short row
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("expected error")
	}
}

func TestSampleAndInt64Conversion(t *testing.T) {
	st := &SegmentTrace{Latencies: []sim.Duration{sim.Millisecond, 3 * sim.Millisecond}}
	s := st.Sample()
	if s.Len() != 2 || s.Max() != float64(3*sim.Millisecond) {
		t.Error("sample conversion wrong")
	}
	v := st.LatenciesInt64()
	if v[0] != int64(sim.Millisecond) {
		t.Error("int64 conversion wrong")
	}
}

func TestRemoteModeRecordsRebasedLatency(t *testing.T) {
	// Starts (publications) at t=0 and t=100ms+5ms (5ms activation
	// jitter); ends (receptions) 2ms after each start.
	pub, recv := newPoint(), newPoint()
	ms := func(n int64) sim.Time { return sim.Time(n * int64(sim.Millisecond)) }
	pub.note(0, 0, false)
	recv.note(0, ms(2), false) // no previous start: skipped
	pub.note(1, ms(105), false)
	recv.note(1, ms(107), false)
	rec := NewRecorder()
	rec.Remote(Span{Name: "rem", From: pub, To: recv}, 1, 100*sim.Millisecond)
	st := rec.Trace().Segment("rem")
	if len(st.Latencies) != 1 {
		t.Fatalf("latencies = %d, want 1 (activation 0 has no rebase anchor)", len(st.Latencies))
	}
	// end(1) − (start(0) + P) = 107ms − 100ms = 7ms: the 5ms activation
	// jitter plus the 2ms transport are both charged to the segment, as
	// the synchronization-based monitor will measure it.
	if st.Latencies[0] != 7*sim.Millisecond {
		t.Errorf("rebased latency = %v, want 7ms", st.Latencies[0])
	}
}

func TestStartOnPublishRecords(t *testing.T) {
	k := sim.NewKernel()
	d := dds.NewDomain(k, sim.NewRNG(1))
	d.KsoftirqCost = sim.Constant(0)
	d.DeliverCost = sim.Constant(0)
	d.Loopback = netsim.Config{BCRT: 5 * sim.Millisecond}
	ecu := d.NewECU("e", 2, vclock.Config{})
	ecu.Proc.CtxSwitch = sim.Constant(0)
	ecu.Proc.Wakeup = sim.Constant(0)
	src := ecu.NewNode("src", dds.PrioExecBase+1)
	dst := ecu.NewNode("dst", dds.PrioExecBase)
	pub := src.NewPublisher("t")
	sub := dst.Subscribe("t", nil, nil)

	rec := NewRecorder()
	rec.Segment(Span{Name: "hop", From: OnPublish(pub), To: OnDeliver(sub)}, 1)
	k.At(0, func() { pub.Publish(0, nil, 0) })
	k.Run()
	st := rec.Trace().Segment("hop")
	if len(st.Latencies) != 1 || st.Latencies[0] != 5*sim.Millisecond {
		t.Errorf("latencies = %v, want [5ms]", st.Latencies)
	}
}
