package dds

import (
	"testing"

	"chainmon/internal/sim"
	"chainmon/internal/vclock"
)

// checkFreelist fails the test when a parked delivery record still holds
// a sample or a running receive chain.
func checkFreelist(t *testing.T, sub *Subscription) int {
	t.Helper()
	n := 0
	for r := sub.free; r != nil; r = r.next {
		if r.s != (Sample{}) || r.pending != 0 {
			t.Fatalf("freelist holds an in-flight record: pending=%d sample=%v", r.pending, r.s)
		}
		n++
	}
	return n
}

// TestDeliveryRecordLifetime drives duplicated, held (reordered), dropped,
// expired and hook-discarded messages through one subscription, first one
// message at a time, then with many in flight at once. Every copy the link
// schedules must be delivered exactly once, with its own sample; no record
// may sit on the freelist while a chain still runs on it; a lost send must
// hand its record back at once; and once every copy of a message has
// finished, its record must be back on the freelist.
func TestDeliveryRecordLifetime(t *testing.T) {
	k, d, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	n2 := e2.NewNode("r", PrioExecBase)
	link := d.SetLink("ecu1", "ecu2", d.InterECU)
	// Message i (counted per send): every third is lost, every second is
	// duplicated 1.5 ms later, every fifth is held 3 ms past the FIFO order.
	sends := 0
	link.DropFault = func(sim.Time, int) bool { sends++; return sends%3 == 0 }
	link.DupFault = func(sim.Time, int) (bool, sim.Duration) { return sends%2 == 0, 1500 * sim.Microsecond }
	link.HoldFault = func(sim.Time, int) sim.Duration {
		if sends%5 == 0 {
			return 3 * sim.Millisecond
		}
		return 0
	}

	var sub *Subscription
	arrivals := map[uint64]int{}
	callbacks := map[uint64]int{}
	sub = n2.Subscribe("t", nil, func(s *Sample) {
		checkFreelist(t, sub)
		if s.Data.(uint64) != s.Activation {
			t.Fatalf("callback got sample %d carrying the data of %v", s.Activation, s.Data)
		}
		callbacks[s.Activation]++
	})
	sub.OnDeliver = append(sub.OnDeliver, func(s *Sample) bool {
		checkFreelist(t, sub)
		arrivals[s.Activation]++
		// Discard every second copy of activations divisible by 7: the
		// chain of that copy ends at the hook, the other runs on.
		return !(s.Activation%7 == 0 && arrivals[s.Activation] == 2)
	})
	// Held copies (~3.5 ms on the wire) outlive the lifespan and expire
	// before the hooks; on-time and duplicate copies (≤ ~2 ms) do not.
	sub.Lifespan = 2500 * sim.Microsecond
	pub := n1.NewPublisher("t")
	publish := func(act uint64) {
		before := checkFreelist(t, sub)
		lostBefore := link.FaultDrops()
		pub.Publish(act, act, 100)
		// A lost send pops a parked record (or allocates the first one)
		// and parks it again at once.
		if link.FaultDrops() > lostBefore && checkFreelist(t, sub) != max(before, 1) {
			t.Fatalf("act %d: lost send did not return its record at once", act)
		}
	}

	// One message at a time: a single record serves the whole phase, so
	// it must be parked after every message, whichever way its copies
	// ended.
	for act := uint64(0); act < 60; act++ {
		k.At(k.Now().Add(200*sim.Microsecond), func() { publish(act) })
		k.Run()
		if n := checkFreelist(t, sub); n != 1 {
			t.Fatalf("act %d: %d records parked after the message finished, want 1", act, n)
		}
	}
	// Many in flight: a record released while one of its copies still
	// runs would be reused by a later message and deliver the wrong sample.
	for act := uint64(1000); act < 1060; act++ {
		k.At(k.Now().Add(sim.Duration(act-999)*200*sim.Microsecond), func() { publish(act) })
	}
	k.Run()
	checkFreelist(t, sub)

	sent, lost := link.Stats()
	if link.Duplicated() == 0 || link.Held() == 0 || lost == 0 || sub.Expired() == 0 {
		t.Fatalf("fault mix not exercised: dup=%d held=%d lost=%d expired=%d",
			link.Duplicated(), link.Held(), lost, sub.Expired())
	}
	copies := 0
	for _, n := range arrivals {
		copies += n
	}
	if want := int(sent-lost) + int(link.Duplicated()); copies+int(sub.Expired()) != want {
		t.Fatalf("%d copies reached the hooks and %d expired, link scheduled %d", copies, sub.Expired(), want)
	}
	for act, n := range arrivals {
		want := n
		if act%7 == 0 && n == 2 {
			want = 1
		}
		if callbacks[act] != want {
			t.Errorf("act %d: %d arrivals, %d callbacks, want %d", act, n, callbacks[act], want)
		}
	}
	if delivered, discarded := sub.Stats(); int(delivered+discarded) != copies {
		t.Errorf("stats delivered=%d discarded=%d, want %d copies in total", delivered, discarded, copies)
	}
}

// TestDeliveryAllocs is the allocation gate of the message path: once the
// publication, delivery-record, work-item and event freelists are primed,
// nothing on it allocates — not a publication fanned out to two
// subscriptions (a loopback and a remote one) and carried over the links,
// ksoftirq, the middleware thread, an OnDeliver hook and the executor
// callback, not a device publication, and not a recovered sample issued
// through DeliverLocal.
func TestDeliveryAllocs(t *testing.T) {
	k, d, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase+1)
	local := e1.NewNode("local", PrioExecBase)
	remote := e2.NewNode("remote", PrioExecBase)
	got := 0
	cost := func(*Sample) sim.Duration { return 5 * sim.Microsecond }
	count := func(*Sample) { got++ }
	pass := func(*Sample) bool { return true }
	subs := []*Subscription{local.Subscribe("t", cost, count), remote.Subscribe("t", cost, count)}
	for _, sub := range subs {
		sub.OnDeliver = append(sub.OnDeliver, pass)
	}
	devSub := remote.Subscribe("d", cost, count)
	devSub.OnDeliver = append(devSub.OnDeliver, pass)
	pub := n1.NewPublisher("t")
	act := uint64(0)
	publish := func() {
		pub.Publish(act, nil, 64)
		act++
	}
	recoveries := 0
	recoverSample := func() {
		subs[1].DeliverLocal(&Sample{Topic: "t", Writer: "s/t", Activation: act, Size: 64, Recovered: true})
		recoveries++
	}
	// The device publishes once per op of either check: every op runs
	// one millisecond of simulated time.
	dev := d.NewDevice("lidar", "d", sim.Millisecond, vclock.Config{})
	dev.Start(0)
	check := func(what string, fn func()) {
		t.Helper()
		op := func() {
			k.At(k.Now(), fn)
			k.RunUntil(k.Now().Add(sim.Millisecond))
		}
		for i := 0; i < 8; i++ {
			op()
		}
		if allocs := testing.AllocsPerRun(500, op); allocs != 0 {
			t.Errorf("%s and a device publication allocate %.2f/op, want 0", what, allocs)
		}
	}
	check("a publication to two subscriptions", publish)
	check("a recovered sample through DeliverLocal", recoverSample)
	dev.Stop()
	k.Run()
	devDelivered, _ := devSub.Stats()
	if want := 2*int(act) + recoveries + int(devDelivered); got != want {
		t.Fatalf("%d callbacks for %d publications, %d recoveries and %d device samples, want %d",
			got, act, recoveries, devDelivered, want)
	}
	if devDelivered < 1000 {
		t.Fatalf("device delivered %d samples, want one per simulated millisecond", devDelivered)
	}
}

// TestKeptSampleReadsZero pins the lending contract: a *Sample kept past
// the hook or callback it was handed to reads the zero Sample once its
// record is parked, whichever way it was handed out — a publication hook,
// a delivery hook, a callback, a device publication or DeliverLocal — and
// DeliverLocal hands on a copy, never the caller's sample.
func TestKeptSampleReadsZero(t *testing.T) {
	k, d, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	n2 := e2.NewNode("r", PrioExecBase)
	var kept []*Sample
	keep := func(s *Sample) { kept = append(kept, s) }
	checkKept := func(phase string, want int) {
		t.Helper()
		if len(kept) != want {
			t.Fatalf("%s: %d samples handed out, want %d", phase, len(kept), want)
		}
		for i, s := range kept {
			if *s != (Sample{}) {
				t.Errorf("%s: sample %d kept past its hook reads %+v, want the zero Sample", phase, i, *s)
			}
		}
		kept = kept[:0]
	}

	sub := n2.Subscribe("t", nil, keep)
	sub.OnDeliver = append(sub.OnDeliver, func(s *Sample) bool { keep(s); return true })
	pub := n1.NewPublisher("t")
	pub.OnPublish = append(pub.OnPublish, keep)
	k.At(0, func() {
		pub.Publish(7, "x", 64)
		// The publication's record is parked once Publish returns; its
		// delivery record is still in flight.
		checkKept("publication", 1)
	})
	k.Run()
	checkKept("delivery", 2) // OnDeliver hook and callback

	caller := Sample{Topic: "t", Writer: "s/t", Activation: 8, Data: "recovered", Recovered: true}
	want := caller
	k.At(k.Now()+1, func() { sub.DeliverLocal(&caller) })
	k.Run()
	for _, s := range kept {
		if s == &caller {
			t.Fatal("DeliverLocal handed the caller's sample to a hook")
		}
	}
	checkKept("DeliverLocal", 2)
	if caller != want {
		t.Errorf("DeliverLocal changed the caller's sample to %+v", caller)
	}

	dev := d.NewDevice("lidar", "points", 10*sim.Millisecond, vclock.Config{})
	dev.Payload = func(n uint64) (any, int) { return n, 100 }
	dev.OnPublish = append(dev.OnPublish, keep)
	devSub := n2.Subscribe("points", nil, keep)
	devSub.OnDeliver = append(devSub.OnDeliver, func(s *Sample) bool { keep(s); return true })
	dev.Start(k.Now() + 1)
	k.At(k.Now().Add(5*sim.Millisecond), dev.Stop)
	k.Run()
	checkKept("device", 3) // OnPublish, OnDeliver and callback
}

// TestNestedPublicationsIntact publishes from inside another publication's
// hook and recovers a sample through DeliverLocal from inside a delivery
// hook, as the monitors do. Each nested sample rides a record of its own,
// so the outer hook's sample is unchanged when the nested call returns and
// every subscriber receives every sample intact.
func TestNestedPublicationsIntact(t *testing.T) {
	k, _, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	n2 := e2.NewNode("r", PrioExecBase)
	pubA := n1.NewPublisher("a")
	pubB := n1.NewPublisher("b")
	// Each publication on a publishes on b; the first also publishes on a
	// again, from inside its own hook.
	pubA.OnPublish = append(pubA.OnPublish, func(s *Sample) {
		before := *s
		pubB.Publish(before.Activation+100, "b", 16)
		if before.Activation == 0 {
			pubA.Publish(10, "a-nested", 32)
		}
		if *s != before {
			t.Errorf("nested publications changed the outer sample to %+v, was %+v", *s, before)
		}
	})
	type key struct {
		topic string
		act   uint64
	}
	got := map[key]Sample{}
	record := func(s *Sample) { got[key{s.Topic, s.Activation}] = *s }
	subA := n2.Subscribe("a", nil, record)
	subB := n2.Subscribe("b", nil, record)
	subA.OnDeliver = append(subA.OnDeliver, func(s *Sample) bool {
		before := *s
		if before.Activation == 0 {
			subB.DeliverLocal(&Sample{Topic: "b", Writer: "s/b", Activation: 200, Size: 4, Data: "recovered", Recovered: true})
		}
		if *s != before {
			t.Errorf("a nested DeliverLocal changed the outer sample to %+v, was %+v", *s, before)
		}
		return true
	})
	k.At(0, func() { pubA.Publish(0, "a", 8) })
	k.Run()

	want := map[key]Sample{
		{"a", 0}:   {Topic: "a", Writer: "s/a", Activation: 0, Size: 8, Data: "a"},
		{"a", 10}:  {Topic: "a", Writer: "s/a", Activation: 10, Size: 32, Data: "a-nested"},
		{"b", 100}: {Topic: "b", Writer: "s/b", Activation: 100, Size: 16, Data: "b"},
		{"b", 110}: {Topic: "b", Writer: "s/b", Activation: 110, Size: 16, Data: "b"},
		{"b", 200}: {Topic: "b", Writer: "s/b", Activation: 200, Size: 4, Data: "recovered", Recovered: true},
	}
	if len(got) != len(want) {
		t.Errorf("received %d samples, want %d: %v", len(got), len(want), got)
	}
	for id, w := range want {
		g, ok := got[id]
		// Times depend on the path; compare everything else.
		g.SrcTimestamp, g.PubTime, g.RecvTime = 0, 0, 0
		if !ok || g != w {
			t.Errorf("%s#%d: received %+v, want %+v", id.topic, id.act, g, w)
		}
	}
	if got[key{"a", 0}].RecvTime == 0 || got[key{"b", 200}].RecvTime == 0 {
		t.Error("a delivered sample carries no RecvTime")
	}
}
