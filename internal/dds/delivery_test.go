package dds

import (
	"testing"

	"chainmon/internal/sim"
)

// checkFreelist fails the test when a parked delivery record still refers
// to a sample or to a running receive chain.
func checkFreelist(t *testing.T, sub *Subscription) int {
	t.Helper()
	n := 0
	for r := sub.free; r != nil; r = r.next {
		if r.s != nil || r.pending != 0 {
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
// record, work-item and event freelists are primed, one publication
// delivered over the link through ksoftirq, the middleware thread, an
// OnDeliver hook and the executor callback allocates exactly the published
// Sample and the subscription's copy of it.
func TestDeliveryAllocs(t *testing.T) {
	k, _, e1, e2 := newTestDomain()
	n1 := e1.NewNode("s", PrioExecBase)
	n2 := e2.NewNode("r", PrioExecBase)
	got := 0
	sub := n2.Subscribe("t", func(*Sample) sim.Duration { return 5 * sim.Microsecond }, func(*Sample) { got++ })
	sub.OnDeliver = append(sub.OnDeliver, func(*Sample) bool { return true })
	pub := n1.NewPublisher("t")
	act := uint64(0)
	publish := func() {
		pub.Publish(act, nil, 64)
		act++
	}
	for i := 0; i < 8; i++ {
		k.At(k.Now(), publish)
		k.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		k.At(k.Now(), publish)
		k.Run()
	})
	if allocs != 2 {
		t.Fatalf("one delivery allocates %.2f/op, want 2 (published Sample + subscription copy)", allocs)
	}
	if got != int(act) {
		t.Fatalf("%d callbacks for %d publications", got, act)
	}
}
