package monitor

import (
	"testing"

	"chainmon/internal/sim"
	"chainmon/internal/weaklyhard"
)

// The monitors arm their timers on recycled kernel events: once a timer
// fired, the kernel hands its event to the next schedule. These
// tests cancel a timer's handle after it fired, at a moment when the
// event holds someone else's schedule, and check that the new occupant
// still fires.

// TestLocalLateEndAfterForceWake: an end posted after the activation's
// ForceWake fired, but before the forced pass ran, resolves OK, and the
// drain's cancel of the fired timer leaves alone the timer that the same
// pass armed on the recycled event for the next activation.
func TestLocalLateEndAfterForceWake(t *testing.T) {
	r := newTestRig()
	const dmon = 10 * sim.Millisecond
	seg := r.mon.AddSegment(SegmentConfig{
		Name: "injected", DMon: dmon, Period: 100 * sim.Millisecond,
		Constraint:  weaklyhard.Constraint{M: 1, K: 5},
		HandlerCost: sim.Constant(20 * sim.Microsecond),
	})
	r.k.At(0, func() { seg.StartInjected(1) })
	// Activation 1's timer fires at dmon and queues a pass that runs a
	// scan cost (10 µs) later. In between, activation 1 ends and
	// activation 2 starts; the pass arms 2 before it drains 1's end.
	r.k.At(sim.Time(dmon+5*sim.Microsecond), func() {
		seg.StartInjected(2)
		seg.EndInjected(1)
	})
	r.k.Run()

	res := seg.Stats().Resolutions()
	if len(res) != 2 {
		t.Fatalf("resolutions %+v, want activation 1 OK and activation 2 missed", res)
	}
	if res[0].Activation != 1 || res[0].Status != StatusOK {
		t.Errorf("activation 1 resolved %+v, want OK: its end was drained before its timeout", res[0])
	}
	if res[1].Activation != 2 || res[1].Status != StatusMissed {
		t.Fatalf("activation 2 resolved %+v, want missed", res[1])
	}
	if d := res[1].DetectionLatency; d < 0 || d > sim.Millisecond {
		t.Errorf("activation 2 detected %v after its deadline: its own timer did not wake the monitor", d)
	}
	if n := r.mon.Core().PendingTimeouts(); n != 0 {
		t.Errorf("%d timeouts still armed after the run", n)
	}
}

// TestRemoteRearmAfterTimeout: handleTimeout re-arms from the timer that
// just fired. By then the recovery's receive event has taken the fired
// timer's event, and the recovered sample must still reach the application,
// and the re-armed timer must fire for the next lost activation.
func TestRemoteRearmAfterTimeout(t *testing.T) {
	r := newRemoteRig()
	m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 2, K: 5},
		func(*ExceptionContext) *Recovery { return &Recovery{Data: "held"} }, VariantMonitorThread)
	r.send(0, 0)
	r.send(2, 0) // 1 and 3 are lost
	r.k.RunUntil(sim.Time(350 * sim.Millisecond))

	want := []Status{StatusOK, StatusRecovered, StatusOK, StatusRecovered}
	res := m.Stats().Resolutions()
	if len(res) != len(want) {
		t.Fatalf("resolutions %+v, want %v", res, want)
	}
	for i, st := range want {
		if res[i].Activation != uint64(i) || res[i].Status != st {
			t.Errorf("resolution %d = %+v, want activation %d %v", i, res[i], i, st)
		}
	}
	if len(r.received) != 4 {
		t.Fatalf("application received %v, want activations 0..3", r.received)
	}
	for _, act := range []uint64{1, 3} {
		if r.recData[act] != "held" {
			t.Errorf("activation %d reached the application with %v, want the recovered data", act, r.recData[act])
		}
	}
}

// TestRemoteStopAfterTimeout: Stop between a timer's expiry and its timeout
// routine's entry cancels a handle whose event now carries the routine's
// completion. The routine must still run and raise the exception for the
// expected activation, and nothing is armed after it.
func TestRemoteStopAfterTimeout(t *testing.T) {
	r := newRemoteRig()
	m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 1, K: 5}, nil, VariantMonitorThread)
	deadline := sim.Time(10 * sim.Millisecond)
	m.Start(0, deadline)
	// The routine costs 5 µs on the idle monitor thread.
	fire := sim.Time(0).Add(r.ecu2.Clock.GlobalAfter(deadline))
	r.k.At(fire.Add(2*sim.Microsecond), m.Stop)
	r.k.RunUntil(sim.Time(500 * sim.Millisecond))

	res := m.Stats().Resolutions()
	if len(res) != 1 || res[0].Activation != 0 || res[0].Status != StatusMissed {
		t.Fatalf("resolutions %+v, want activation 0 missed and nothing after Stop", res)
	}
	if e := res[0].HandlerEntry; e < fire || e > fire.Add(sim.Millisecond) {
		t.Errorf("timeout routine entered at %v, want just after the expiry at %v", e, fire)
	}
}

// TestInterArrivalStopAfterExpiry: a detection callback that dispatches
// its handling and then stops the supervisor cancels the handle of the
// timer that just expired, whose event the dispatch now uses. The handling
// must still run, and no further detection follows.
func TestInterArrivalStopAfterExpiry(t *testing.T) {
	r := newRemoteRig()
	ia := NewInterArrivalMonitor(r.sub, 150*sim.Millisecond)
	handled := 0
	ia.OnDetect(func(sim.Time) {
		r.receiver.Exec.Enqueue("on-detect", 10*sim.Microsecond, func() { handled++ })
		ia.Stop()
	})
	r.send(0, 0)
	r.k.RunUntil(sim.Time(800 * sim.Millisecond))
	if n := len(ia.Detections()); n != 1 {
		t.Errorf("%d detections, want 1: the supervisor was stopped at the first", n)
	}
	if handled != 1 {
		t.Errorf("the detection's handling ran %d times, want 1", handled)
	}
}
