package monitor

import (
	"sync"
	"testing"
	"time"

	rt "chainmon/internal/runtime"
	"chainmon/internal/runtime/walltime"
	"chainmon/internal/sim"
	"chainmon/internal/weaklyhard"
)

// TestBudgetTableVersioning pins the table semantics: versions are
// cumulative full snapshots, epochs are monotonic, non-positive deadlines
// are rejected, and wakers fire per stage.
func TestBudgetTableVersioning(t *testing.T) {
	tab := NewBudgetTable()
	if tab.Epoch() != 0 || tab.AppliedEpoch() != 0 {
		t.Fatalf("fresh table at epoch %d/%d, want 0/0", tab.Epoch(), tab.AppliedEpoch())
	}
	kicks := 0
	tab.RegisterWaker(func() { kicks++ })
	if e := tab.Stage([]DeadlineUpdate{{Segment: "a", DMon: 5 * sim.Millisecond}}); e != 1 {
		t.Fatalf("first stage at epoch %d, want 1", e)
	}
	if e := tab.Stage([]DeadlineUpdate{{Segment: "b", DMon: 7 * sim.Millisecond}, {Segment: "bogus", DMon: -1}}); e != 2 {
		t.Fatalf("second stage at epoch %d, want 2", e)
	}
	v := tab.load()
	if len(v.updates) != 2 {
		t.Fatalf("version carries %d updates, want the full 2-segment snapshot", len(v.updates))
	}
	if v.updates[0] != (DeadlineUpdate{Segment: "a", DMon: 5 * sim.Millisecond}) ||
		v.updates[1] != (DeadlineUpdate{Segment: "b", DMon: 7 * sim.Millisecond}) {
		t.Fatalf("snapshot %+v lost earlier updates or kept the invalid one", v.updates)
	}
	if kicks != 2 {
		t.Fatalf("wakers kicked %d times, want 2", kicks)
	}
	d := tab.Deadlines()
	if len(d) != 2 || d["a"] != 5*sim.Millisecond || d["b"] != 7*sim.Millisecond {
		t.Fatalf("staged deadlines %v", d)
	}
}

// TestBudgetSwapSimBarrier drives the deterministic rig across a mid-run
// shrink: the activation already in flight when the new table lands keeps
// its armed deadline (swap barrier), the next one is supervised under the
// tighter budget and misses.
func TestBudgetSwapSimBarrier(t *testing.T) {
	r := newTestRig()
	seg := r.segment(5*sim.Millisecond, weaklyhard.Constraint{M: 2, K: 4}, nil)
	tab := NewBudgetTable()
	r.mon.AttachBudget(tab)
	r.defCost = 3 * sim.Millisecond // OK under 5ms, a miss under 2ms
	r.produce(4, 100*sim.Millisecond)
	// Activation 2 starts at ~200ms and runs 3ms; the shrink is staged at
	// 201ms, mid-flight. The table's waker forces a scan pass, so the swap
	// applies immediately — but only to activations drained afterwards.
	r.k.At(sim.Time(201*sim.Millisecond), func() {
		tab.Stage([]DeadlineUpdate{{Segment: "worker", DMon: 2 * sim.Millisecond}})
	})
	r.k.Run()
	if got := tab.AppliedEpoch(); got != 1 {
		t.Fatalf("applied epoch %d, want 1", got)
	}
	if got := seg.Config().DMon; got != 2*sim.Millisecond {
		t.Fatalf("live config DMon %v, want the staged 2ms", got)
	}
	want := []Status{StatusOK, StatusOK, StatusOK, StatusMissed}
	res := seg.Stats().Resolutions()
	if len(res) != len(want) {
		t.Fatalf("%d resolutions, want %d", len(res), len(want))
	}
	for i, r := range res {
		if r.Status != want[i] {
			t.Fatalf("act %d resolved %v, want %v (in-flight act 2 must keep its 5ms deadline)", i, r.Status, want[i])
		}
	}
}

// TestBudgetSwapSimGrow covers the relax direction: activations missing
// under the tight initial deadline become OK once a grown budget is staged,
// and the in-flight activation at the swap still resolves under the
// deadline it started with.
func TestBudgetSwapSimGrow(t *testing.T) {
	r := newTestRig()
	seg := r.segment(2*sim.Millisecond, weaklyhard.Constraint{M: 4, K: 8}, nil)
	tab := NewBudgetTable()
	r.mon.AttachBudget(tab)
	r.defCost = 3 * sim.Millisecond
	r.produce(4, 100*sim.Millisecond)
	r.k.At(sim.Time(101*sim.Millisecond), func() {
		tab.Stage([]DeadlineUpdate{{Segment: "worker", DMon: 5 * sim.Millisecond}})
	})
	r.k.Run()
	want := []Status{StatusMissed, StatusMissed, StatusOK, StatusOK}
	res := seg.Stats().Resolutions()
	if len(res) != len(want) {
		t.Fatalf("%d resolutions, want %d", len(res), len(want))
	}
	for i, r := range res {
		if r.Status != want[i] {
			t.Fatalf("act %d resolved %v, want %v (growth must not relax the in-flight act 1)", i, r.Status, want[i])
		}
	}
}

// TestBudgetSwapUnderPreemptionWallclock is the -race battery on the wall
// timebase: a producer goroutine feeds activations, the monitor loop scans,
// and a third goroutine stages shrink/grow swaps concurrently. The test
// asserts the bookkeeping invariants that must survive arbitrary
// interleavings — every activation resolves exactly once, and after the
// final (generous) swap settles, late activations resolve OK.
func TestBudgetSwapUnderPreemptionWallclock(t *testing.T) {
	clock := walltime.NewClock()
	sem := walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(256) }, 1)
	seg := mon.AddSegment(SegmentConfig{
		Name: "w", DMon: 5 * time.Millisecond, Period: time.Millisecond,
		Constraint: weaklyhard.Constraint{M: 100, K: 200},
	})
	var mu sync.Mutex
	resolved := make(map[uint64]int)
	var last Resolution
	seg.OnResolve(func(r Resolution) {
		mu.Lock()
		resolved[r.Activation]++
		last = r
		mu.Unlock()
	})
	tab := NewBudgetTable()
	mon.AttachBudget(tab)

	loop := walltime.NewLoop(clock, sem)
	loop.Scan = mon.ScanNow
	loop.Next = mon.Core().NextDeadline
	loop.Start()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			d := 2 * time.Millisecond
			if i%2 == 1 {
				d = 8 * time.Millisecond
			}
			tab.Stage([]DeadlineUpdate{{Segment: "w", DMon: d}})
			time.Sleep(500 * time.Microsecond)
		}
		// Settle on a budget no activation below can miss.
		tab.Stage([]DeadlineUpdate{{Segment: "w", DMon: 50 * time.Millisecond}})
	}()
	const n = 100
	for act := uint64(0); act < n; act++ {
		seg.StartInjected(act)
		if act%5 == 0 {
			// Slow activations straddle the swapped deadlines, so some race
			// the expiry path while swaps land; fast ones resolve OK.
			time.Sleep(3 * time.Millisecond)
		} else {
			time.Sleep(200 * time.Microsecond)
		}
		seg.EndInjected(act)
	}
	<-done
	// Post a tail activation after the generous budget settled.
	seg.StartInjected(n)
	time.Sleep(time.Millisecond)
	seg.EndInjected(n)
	time.Sleep(20 * time.Millisecond)
	sem.Wake()
	time.Sleep(10 * time.Millisecond)
	loop.Stop()

	mu.Lock()
	defer mu.Unlock()
	if len(resolved) != n+1 {
		t.Fatalf("%d activations resolved, want %d", len(resolved), n+1)
	}
	for act, c := range resolved {
		if c != 1 {
			t.Fatalf("activation %d resolved %d times", act, c)
		}
	}
	if last.Activation != n || last.Status != StatusOK {
		t.Fatalf("tail activation resolved %v (act %d), want OK under the settled 50ms budget", last.Status, last.Activation)
	}
	if got := seg.Config().DMon; got != 50*sim.Millisecond {
		t.Fatalf("settled DMon %v, want 50ms", got)
	}
}

// remoteSwapRig is the remote rig with d_mon 10 ms, a budget table attached
// and a 10 → 30 ms swap staged at the given time.
func remoteSwapRig(at sim.Time) (*remoteRig, *RemoteMonitor, *BudgetTable) {
	r := newRemoteRig()
	m := r.monitor(10*sim.Millisecond, weaklyhard.Constraint{M: 5, K: 10}, nil, VariantMonitorThread)
	tab := NewBudgetTable()
	m.AttachBudget(tab)
	r.k.At(at, func() {
		tab.Stage([]DeadlineUpdate{{Segment: "s-remote", DMon: 30 * sim.Millisecond}})
	})
	return r, m, tab
}

// wantRemote checks a remote monitor's resolutions: one status per
// activation from 0, and for each activation in fired the time its
// exception ended, within a millisecond.
func wantRemote(t *testing.T, m *RemoteMonitor, want []Status, fired map[uint64]sim.Duration) {
	t.Helper()
	res := m.Stats().Resolutions()
	if len(res) != len(want) {
		t.Fatalf("%d resolutions %+v, want %d", len(res), res, len(want))
	}
	for i, r := range res {
		if r.Activation != uint64(i) || r.Status != want[i] {
			t.Errorf("resolution %d: activation %d %v, want activation %d %v", i, r.Activation, r.Status, i, want[i])
		}
		if at, ok := fired[r.Activation]; ok && (r.End < sim.Time(at) || r.End > sim.Time(at).Add(sim.Millisecond)) {
			t.Errorf("activation %d: exception at %v, want at %v", r.Activation, r.End, at)
		}
	}
}

// TestRemoteBudgetSwapOnDelivery stages a longer d_mon while activation 3
// is armed for 310 ms. Its on-time sample applies the swap, and each later
// deadline, derived from the previous sample's source timestamp, uses the
// new d_mon: activation 4, 25 ms late, is on time under 30 ms, and
// activation 6, 35 ms late, misses at 630 ms.
func TestRemoteBudgetSwapOnDelivery(t *testing.T) {
	r, m, tab := remoteSwapRig(sim.Time(250 * sim.Millisecond))
	for a, late := range []sim.Duration{0, 0, 0, 0, 25 * sim.Millisecond, 0, 35 * sim.Millisecond, 0} {
		r.send(uint64(a), late)
	}
	var before, after uint64
	r.k.At(sim.Time(300*sim.Millisecond), func() { before = tab.AppliedEpoch() })
	r.k.At(sim.Time(302*sim.Millisecond), func() { after = tab.AppliedEpoch() })
	r.k.RunUntil(sim.Time(805 * sim.Millisecond))
	if before != 0 || after != 1 {
		t.Errorf("applied epoch %d before activation 3's sample and %d after, want 0 and 1", before, after)
	}
	if got := m.Config().DMon; got != 30*sim.Millisecond {
		t.Errorf("DMon %v after the swap, want 30ms", got)
	}
	wantRemote(t, m, []Status{
		StatusOK, StatusOK, StatusOK, StatusOK, StatusOK, StatusOK, StatusMissed, StatusOK,
	}, map[uint64]sim.Duration{6: 630 * sim.Millisecond})
	if n := m.LateDiscards(); n != 1 {
		t.Errorf("%d late discards, want activation 6's sample", n)
	}
}

// TestRemoteBudgetSwapKeepsArmedDeadline: activation 2's sample misses its
// 210 ms deadline, and the swap is staged before that late sample arrives.
// The late sample applies the swap as it is discarded, while activation 3
// is armed for 310 ms under the old d_mon. Activation 3 keeps that deadline
// and misses 15 ms late; activation 4, armed after the swap from the
// previous deadline plus the period, uses the new one and is on time
// 25 ms late.
func TestRemoteBudgetSwapKeepsArmedDeadline(t *testing.T) {
	r, m, tab := remoteSwapRig(sim.Time(212 * sim.Millisecond))
	for a, late := range []sim.Duration{0, 0, 15 * sim.Millisecond, 15 * sim.Millisecond, 25 * sim.Millisecond, 0} {
		r.send(uint64(a), late)
	}
	r.k.RunUntil(sim.Time(505 * sim.Millisecond))
	if got := tab.AppliedEpoch(); got != 1 {
		t.Errorf("applied epoch %d, want 1", got)
	}
	wantRemote(t, m, []Status{StatusOK, StatusOK, StatusMissed, StatusMissed, StatusOK, StatusOK},
		map[uint64]sim.Duration{2: 210 * sim.Millisecond, 3: 310 * sim.Millisecond})
	if n := m.LateDiscards(); n != 2 {
		t.Errorf("%d late discards, want activations 2 and 3", n)
	}
}

// TestRemoteBudgetSwapDuringOutage stages a longer d_mon while the sender
// is silent. With no sample to take a source timestamp from, each deadline
// is the previous one plus the period. The swap lands at activation 4's
// timeout: activation 4 keeps the 410 ms it was armed with, and the
// deadlines of 5–7, armed after the swap, move by the 20 ms the swap added.
func TestRemoteBudgetSwapDuringOutage(t *testing.T) {
	r, m, tab := remoteSwapRig(sim.Time(350 * sim.Millisecond))
	for _, a := range []uint64{0, 1, 2, 8, 9} {
		r.send(a, 0)
	}
	r.k.RunUntil(sim.Time(1005 * sim.Millisecond))
	if got := tab.AppliedEpoch(); got != 1 {
		t.Errorf("applied epoch %d, want 1", got)
	}
	wantRemote(t, m, []Status{
		StatusOK, StatusOK, StatusOK,
		StatusMissed, StatusMissed, StatusMissed, StatusMissed, StatusMissed,
		StatusOK, StatusOK,
	}, map[uint64]sim.Duration{
		3: 310 * sim.Millisecond, 4: 410 * sim.Millisecond,
		5: 530 * sim.Millisecond, 6: 630 * sim.Millisecond, 7: 730 * sim.Millisecond,
	})
}
