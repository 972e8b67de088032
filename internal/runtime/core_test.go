package runtime

import (
	"testing"
	"time"
)

type fakeTimer struct{ cancelled bool }

func (t *fakeTimer) CancelSeq(uint64) { t.cancelled = true }

type rec struct {
	oks     []uint64
	expired []uint64
	skipped map[uint64]bool
	armed   []*fakeTimer
	lats    []Duration
}

func (r *rec) hooks() SegmentHooks {
	return SegmentHooks{
		DrainLatency: func(lat Duration) { r.lats = append(r.lats, lat) },
		SkipArm: func(act uint64) bool {
			return r.skipped != nil && r.skipped[act]
		},
		Arm: func(start Event, deadline, now Time) Timer {
			t := &fakeTimer{}
			r.armed = append(r.armed, t)
			return NewTimer(t, 0)
		},
		OK:     func(start Event, end Time) { r.oks = append(r.oks, start.Act) },
		Expire: func(start Event, deadline, now Time) { r.expired = append(r.expired, start.Act) },
	}
}

func TestCoreOKWithinDeadline(t *testing.T) {
	c := NewCore()
	r := &rec{}
	s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, r.hooks())
	s.StartRing().Post(Event{Act: 1, TS: 0})
	c.Scan(1e6)
	if s.Pending() != 1 || len(r.armed) != 1 {
		t.Fatalf("pending=%d armed=%d, want 1,1", s.Pending(), len(r.armed))
	}
	s.EndRing().Post(Event{Act: 1, TS: 2e6})
	c.Scan(3e6)
	if len(r.oks) != 1 || r.oks[0] != 1 {
		t.Errorf("oks = %v, want [1]", r.oks)
	}
	if !r.armed[0].cancelled {
		t.Error("OK did not cancel the armed timer")
	}
	if len(r.expired) != 0 {
		t.Errorf("expired = %v, want none", r.expired)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d after OK", s.Pending())
	}
}

// TestCoreDuplicateStartIgnored: a start posted twice for a pending
// activation keeps the first arm — one timer, cancelled by the end — and is
// counted, so no timeout record or timer leaks.
func TestCoreDuplicateStartIgnored(t *testing.T) {
	c := NewCore()
	r := &rec{}
	s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, r.hooks())
	s.StartRing().Post(Event{Act: 1, TS: 0})
	s.StartRing().Post(Event{Act: 1, TS: 1e6})
	s.EndRing().Post(Event{Act: 1, TS: 2e6})
	c.Scan(3e6)
	c.Scan(20e6)
	if len(r.armed) != 1 || len(r.oks) != 1 || len(r.expired) != 0 {
		t.Fatalf("armed=%d oks=%v expired=%v, want one arm, one OK", len(r.armed), r.oks, r.expired)
	}
	for i, tm := range r.armed {
		if !tm.cancelled {
			t.Errorf("armed timer %d was never cancelled", i)
		}
	}
	if n := s.DuplicateStarts(); n != 1 {
		t.Errorf("DuplicateStarts = %d, want 1", n)
	}
	if s.Pending() != 0 || c.freePending == nil {
		t.Errorf("pending=%d, recycled=%v: the timeout record leaked", s.Pending(), c.freePending != nil)
	}
}

func TestCoreExpireAfterDeadline(t *testing.T) {
	c := NewCore()
	r := &rec{}
	s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, r.hooks())
	s.StartRing().Post(Event{Act: 3, TS: 0})
	c.Scan(0)
	c.Scan(10e6) // exactly at the deadline: due
	if len(r.expired) != 1 || r.expired[0] != 3 {
		t.Fatalf("expired = %v, want [3]", r.expired)
	}
	// A late end event is discarded silently.
	s.EndRing().Post(Event{Act: 3, TS: 11e6})
	c.Scan(12e6)
	if len(r.oks) != 0 {
		t.Errorf("late end resolved OK: %v", r.oks)
	}
}

// TestCoreLateEndsMiss: a pass that starts after a deadline may find the
// late end already posted. By default the drain resolves it OK; with
// LateEndsMiss the end's timestamp decides, and the activation expires in
// the same pass. An end stamped exactly at the deadline stays OK, and an end
// stamped after a pass read now leaves the activation armed until a pass
// reaches its deadline.
func TestCoreLateEndsMiss(t *testing.T) {
	late := func(lateEndsMiss bool) *rec {
		c := NewCore()
		c.LateEndsMiss = lateEndsMiss
		r := &rec{}
		s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, r.hooks())
		s.StartRing().Post(Event{Act: 1, TS: 0})
		s.StartRing().Post(Event{Act: 2, TS: 0})
		c.Scan(0)
		s.EndRing().Post(Event{Act: 1, TS: 10e6})
		s.EndRing().Post(Event{Act: 2, TS: 11e6})
		c.Scan(12e6) // woke 2 ms late
		return r
	}
	if r := late(false); len(r.oks) != 2 || len(r.expired) != 0 {
		t.Errorf("default: oks=%v expired=%v, want both OK", r.oks, r.expired)
	}
	if r := late(true); len(r.oks) != 1 || r.oks[0] != 1 || len(r.expired) != 1 || r.expired[0] != 2 {
		t.Errorf("LateEndsMiss: oks=%v expired=%v, want [1] and [2]", r.oks, r.expired)
	}

	c := NewCore()
	c.LateEndsMiss = true
	r := &rec{}
	s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, r.hooks())
	s.StartRing().Post(Event{Act: 3, TS: 0})
	c.Scan(0)
	s.EndRing().Post(Event{Act: 3, TS: 11e6})
	c.Scan(9e6) // now was read before the end was stamped
	if len(r.oks) != 0 || len(r.expired) != 0 || s.Pending() != 1 {
		t.Fatalf("oks=%v expired=%v pending=%d, want the activation still armed", r.oks, r.expired, s.Pending())
	}
	if dl, ok := c.NextDeadline(); !ok || dl != 10e6 {
		t.Errorf("NextDeadline = %v,%v, want 10ms", dl, ok)
	}
	c.Scan(10e6)
	if len(r.oks) != 0 || len(r.expired) != 1 || r.expired[0] != 3 {
		t.Errorf("oks=%v expired=%v, want act 3 expired", r.oks, r.expired)
	}
}

func TestCoreFireOrderPerSegmentByActivation(t *testing.T) {
	c := NewCore()
	type fired struct {
		seg string
		act uint64
	}
	var order []fired
	mk := func(name string) SegmentHooks {
		return SegmentHooks{Expire: func(start Event, _, _ Time) {
			order = append(order, fired{name, start.Act})
		}}
	}
	a := c.AddSegment("a", time.Millisecond, &SliceRing{}, &SliceRing{}, mk("a"))
	b := c.AddSegment("b", time.Millisecond, &SliceRing{}, &SliceRing{}, mk("b"))
	// Post out of activation order, with b's deadline earlier than a's. A
	// start posted twice arms one timeout, which fires once.
	a.StartRing().Post(Event{Act: 9, TS: 5})
	a.StartRing().Post(Event{Act: 9, TS: 5})
	a.StartRing().Post(Event{Act: 2, TS: 5})
	b.StartRing().Post(Event{Act: 7, TS: 0})
	c.Scan(10)
	c.Scan(20e6)
	want := []fired{{"a", 2}, {"a", 9}, {"b", 7}}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestCoreSkipArm(t *testing.T) {
	c := NewCore()
	r := &rec{skipped: map[uint64]bool{5: true}}
	s := c.AddSegment("s", time.Millisecond, &SliceRing{}, &SliceRing{}, r.hooks())
	s.StartRing().Post(Event{Act: 5, TS: 0})
	s.StartRing().Post(Event{Act: 6, TS: 0})
	c.Scan(100)
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1 (act 5 skipped)", s.Pending())
	}
	// The drain latency is observed even for skipped events (the monitor
	// still popped them from the ring).
	if len(r.lats) != 2 {
		t.Errorf("drain latencies = %d, want 2", len(r.lats))
	}
}

func TestCoreNextDeadlineLazyHeap(t *testing.T) {
	c := NewCore()
	r := &rec{}
	s := c.AddSegment("s", 10*time.Millisecond, &SliceRing{}, &SliceRing{}, r.hooks())
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("NextDeadline on empty core")
	}
	s.StartRing().Post(Event{Act: 1, TS: 0})
	s.StartRing().Post(Event{Act: 2, TS: 5e6})
	c.Scan(6e6)
	if dl, ok := c.NextDeadline(); !ok || dl != 10e6 {
		t.Fatalf("NextDeadline = %v,%v want 10e6", dl, ok)
	}
	// Completing act 1 must skip its stale heap entry.
	s.EndRing().Post(Event{Act: 1, TS: 7e6})
	c.Scan(8e6)
	if dl, ok := c.NextDeadline(); !ok || dl != 15e6 {
		t.Fatalf("NextDeadline after OK = %v,%v want 15e6", dl, ok)
	}
	c.Scan(20e6)
	if _, ok := c.NextDeadline(); ok {
		t.Error("NextDeadline non-empty after all fired")
	}
	if c.PendingTimeouts() != 0 {
		t.Errorf("PendingTimeouts = %d", c.PendingTimeouts())
	}
}

func TestSliceRingReuse(t *testing.T) {
	r := &SliceRing{}
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 4; i++ {
			r.Post(Event{Act: i})
		}
		if r.Len() != 4 {
			t.Fatalf("len = %d", r.Len())
		}
		for i := uint64(0); i < 4; i++ {
			ev, ok := r.Pop()
			if !ok || ev.Act != i {
				t.Fatalf("pop %d = %v,%v", i, ev, ok)
			}
		}
		if _, ok := r.Pop(); ok {
			t.Fatal("pop on empty ring")
		}
	}
}
