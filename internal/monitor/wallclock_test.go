package monitor

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rt "chainmon/internal/runtime"
	"chainmon/internal/runtime/walltime"
	"chainmon/internal/telemetry"
)

// startWallLoop runs mon's scan loop on its own goroutine, as
// internal/realtime wires it; the caller stops the returned loop.
func startWallLoop(clock *walltime.Clock, sem *walltime.Sem, mon *LocalMonitor) *walltime.Loop {
	loop := walltime.NewLoop(clock, sem)
	loop.Scan = mon.ScanNow
	loop.Next = mon.Core().NextDeadline
	loop.Start()
	return loop
}

// settle wakes the monitor every millisecond until done reports true or two
// seconds pass. End posts do not wake the monitor, so the last ends of a run
// are only drained by a later pass.
func settle(sem *walltime.Sem, done func() bool) {
	limit := time.Now().Add(2 * time.Second)
	for !done() && time.Now().Before(limit) {
		sem.Wake()
		time.Sleep(time.Millisecond)
	}
}

// TestWallclockConcurrentProducers exercises the wall-clock concurrency
// contract under the race detector: one producer goroutine per segment posts
// against the live monitor goroutine, which drains the rings, fires
// timeouts and records telemetry. Producers own only their segment's ring
// side, drop counter and posts track. The rings outsize the activation
// count, so nothing may drop and every activation gets exactly one verdict.
func TestWallclockConcurrentProducers(t *testing.T) {
	const (
		segments = 3
		acts     = 400
		dMon     = 5 * time.Millisecond
	)
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(512) }, 1)
	sink := telemetry.NewSink(1 << 12)
	mon.AttachTelemetry(sink, "w")
	segs := make([]*LocalSegment, segments)
	verdicts := make([][acts]int, segments) // written by the monitor goroutine
	var resolved atomic.Int64
	for i := range segs {
		segs[i] = mon.AddSegment(SegmentConfig{
			Name: fmt.Sprintf("w/%d", i), DMon: dMon, Period: time.Millisecond,
		})
		counts := &verdicts[i]
		segs[i].OnResolve(func(r Resolution) {
			counts[r.Activation]++
			resolved.Add(1)
		})
	}
	loop := startWallLoop(clock, sem, mon)

	var wg sync.WaitGroup
	for i, seg := range segs {
		wg.Add(1)
		go func(i int, seg *LocalSegment) {
			defer wg.Done()
			for act := uint64(0); act < acts; act++ {
				seg.StartInjected(act)
				// Withhold every 16th end, staggered per segment, so expiries
				// run concurrently with ring drains.
				if (act+uint64(i))%16 == 0 {
					continue
				}
				seg.EndInjected(act)
				if act%64 == 0 {
					// Let the monitor interleave instead of the producer
					// racing through the ring in one scheduler slice.
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(i, seg)
	}
	wg.Wait()
	settle(sem, func() bool { return resolved.Load() >= segments*acts })
	loop.Stop()

	for i, seg := range segs {
		if d := seg.Dropped(); d != 0 {
			t.Errorf("seg %d: %d events dropped despite oversized rings", i, d)
		}
		for act, n := range verdicts[i] {
			if n != 1 {
				t.Errorf("seg %d act %d: %d verdicts, want exactly 1", i, act, n)
			}
		}
		ok, _, missed := seg.Stats().Counts()
		// Every withheld end misses; a slow scheduler may add more, never fewer.
		if withheld := acts / 16; missed < withheld || ok == 0 {
			t.Errorf("seg %d: ok=%d missed=%d, want ok>0 and missed>=%d", i, ok, missed, withheld)
		}
		var starts int
		for _, ev := range sink.Rec.Track(seg.Config().Name + "/posts").Events() {
			switch ev.Kind {
			case telemetry.KindRingPostStart:
				starts++
			case telemetry.KindRingDrop:
				t.Errorf("seg %d: ring-drop event for act %d", i, ev.Act)
			}
		}
		if starts != acts {
			t.Errorf("seg %d: %d ring-post-start events, want %d", i, starts, acts)
		}
	}
	scans := sink.Reg.Counter("chainmon_monitor_scans_total", "",
		telemetry.Label{Name: "ecu", Value: "w"}).Value()
	if scans == 0 {
		t.Error("monitor recorded no scans")
	}
}

// TestWallclockRingDropsCounted fills a 4-slot start ring with no monitor
// loop draining it: the two posts the full ring rejects are counted and
// recorded as ring-drop events, not as posts.
func TestWallclockRingDropsCounted(t *testing.T) {
	mon := NewWallclockMonitor(walltime.NewClock(), walltime.NewSem(),
		func() rt.EventRing { return walltime.NewRing(4) }, 1)
	sink := telemetry.NewSink(64)
	mon.AttachTelemetry(sink, "w")
	seg := mon.AddSegment(SegmentConfig{Name: "w/s", DMon: time.Second})
	for act := uint64(0); act < 6; act++ {
		seg.StartInjected(act)
	}
	if got := seg.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d, want 2", got)
	}
	var posted, dropped []uint64
	for _, ev := range sink.Rec.Track("w/s/posts").Events() {
		switch ev.Kind {
		case telemetry.KindRingPostStart:
			posted = append(posted, ev.Act)
		case telemetry.KindRingDrop:
			dropped = append(dropped, ev.Act)
		}
	}
	if fmt.Sprint(posted) != "[0 1 2 3]" || fmt.Sprint(dropped) != "[4 5]" {
		t.Errorf("posted %v, dropped %v; want [0 1 2 3] and [4 5]", posted, dropped)
	}
}

// TestWallclockTelemetryConcurrentAppends runs two producer goroutines and
// the monitor goroutine, all appending to the flight recorder at once:
// producers to their per-segment posts tracks, the monitor to its own track
// and the shared counters. Every fifth end is withheld, and the short
// deadline makes timeouts fire between posts. Run under -race, the main
// assertion is that the race detector stays quiet; every attempted post
// must also show up on its track, as a post or as a drop.
func TestWallclockTelemetryConcurrentAppends(t *testing.T) {
	const acts = 400
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(64) }, 1)
	var segs []*LocalSegment
	for _, name := range []string{"race/a", "race/b"} {
		segs = append(segs, mon.AddSegment(SegmentConfig{Name: name, DMon: 500 * time.Microsecond}))
	}
	sink := telemetry.NewSink(1 << 10)
	mon.AttachTelemetry(sink, "race")
	loop := startWallLoop(clock, sem, mon)

	var wg sync.WaitGroup
	for _, seg := range segs {
		wg.Add(1)
		go func(s *LocalSegment) {
			defer wg.Done()
			for act := uint64(1); act <= acts; act++ {
				s.StartInjected(act)
				if act%5 != 0 {
					s.EndInjected(act)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}(seg)
	}
	wg.Wait()
	time.Sleep(2 * time.Millisecond)
	loop.Stop()

	attempted := acts + acts*4/5
	for _, seg := range segs {
		var posts, drops int
		for _, ev := range sink.Rec.Track(seg.Config().Name + "/posts").Events() {
			switch ev.Kind {
			case telemetry.KindRingPostStart, telemetry.KindRingPostEnd:
				posts++
			case telemetry.KindRingDrop:
				drops++
			}
		}
		if posts+drops != attempted || drops != seg.Dropped() {
			t.Errorf("%s: %d posts + %d drops recorded, want %d attempts and %d drops",
				seg.Config().Name, posts, drops, attempted, seg.Dropped())
		}
	}
	if sink.Rec.Track("race/monitor").Len() == 0 {
		t.Error("monitor track recorded nothing")
	}
	scans := sink.Reg.Counter("chainmon_monitor_scans_total", "",
		telemetry.Label{Name: "ecu", Value: "race"}).Value()
	if scans == 0 {
		t.Error("monitor recorded no scans")
	}
}

// TestWallclockOKPath ends every activation long before its deadline: each
// resolves OK, none excepts, and the monitor hands each start's drain
// latency to its drain observer but keeps no sample of its own (the caller
// times posts on the wall clock).
func TestWallclockOKPath(t *testing.T) {
	const acts = 10
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(64) }, 1)
	// A generous deadline keeps the test robust against scheduling hiccups
	// on loaded, non-realtime machines.
	seg := mon.AddSegment(SegmentConfig{Name: "s", DMon: 500 * time.Millisecond})
	var resolved atomic.Int64
	seg.OnResolve(func(Resolution) { resolved.Add(1) })
	drained := 0 // monitor goroutine only; read after loop.Stop
	seg.OnDrain(func(rt.Duration) { drained++ })
	loop := startWallLoop(clock, sem, mon)
	for act := uint64(0); act < acts; act++ {
		seg.StartInjected(act)
		time.Sleep(time.Millisecond)
		seg.EndInjected(act)
	}
	settle(sem, func() bool { return resolved.Load() >= acts })
	loop.Stop()

	if ok, _, missed := seg.Stats().Counts(); ok != acts || missed != 0 {
		t.Errorf("ok=%d missed=%d, want ok=%d missed=0", ok, missed, acts)
	}
	if n := seg.Stats().Exceptions(); n != 0 {
		t.Errorf("exceptions = %d, want 0", n)
	}
	if d := seg.Dropped(); d != 0 {
		t.Errorf("dropped = %d", d)
	}
	if drained != acts {
		t.Errorf("drain observer saw %d latencies, want one per start (%d)", drained, acts)
	}
	o := mon.Overheads()
	if o.MonLatency.Len() != 0 {
		t.Errorf("monitor latency samples = %d, want none on the wall clock", o.MonLatency.Len())
	}
	if o.StartPost.Len() != 0 || o.EndPost.Len() != 0 {
		t.Errorf("post samples = %d,%d, want none on the wall clock", o.StartPost.Len(), o.EndPost.Len())
	}
}

// TestWallclockEndBeforeDeadlineSuppressesException: activations whose end
// is drained before the deadline resolve OK; only the one without an end
// excepts.
func TestWallclockEndBeforeDeadlineSuppressesException(t *testing.T) {
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(64) }, 1)
	seg := mon.AddSegment(SegmentConfig{Name: "s", DMon: 30 * time.Millisecond})
	var mu sync.Mutex
	var trace string
	seg.OnResolve(func(r Resolution) {
		mu.Lock()
		trace += fmt.Sprintf("%d:%v ", r.Activation, r.Status)
		mu.Unlock()
	})
	snapshot := func() string {
		mu.Lock()
		defer mu.Unlock()
		return trace
	}
	loop := startWallLoop(clock, sem, mon)
	seg.StartInjected(1)
	time.Sleep(5 * time.Millisecond)
	seg.EndInjected(1)
	// Each start wakes the monitor, which drains the preceding end first.
	seg.StartInjected(2)
	time.Sleep(2 * time.Millisecond)
	seg.EndInjected(2)
	seg.StartInjected(3) // never ended
	settle(sem, func() bool { return strings.Count(snapshot(), ":") >= 3 })
	loop.Stop()

	if got, want := snapshot(), "1:ok 2:ok 3:missed "; got != want {
		t.Errorf("verdicts %q, want %q", got, want)
	}
}

// TestWallclockRaisesTimeout withholds an end event: the exception fires
// after the deadline, and not long after it.
func TestWallclockRaisesTimeout(t *testing.T) {
	const dMon = 10 * time.Millisecond
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(64) }, 1)
	seg := mon.AddSegment(SegmentConfig{Name: "s", DMon: dMon})
	got := make(chan Resolution, 1)
	seg.OnResolve(func(r Resolution) { got <- r })
	loop := startWallLoop(clock, sem, mon)
	defer loop.Stop()
	t0 := time.Now()
	seg.StartInjected(7) // never post an end event
	select {
	case r := <-got:
		if r.Activation != 7 || r.Status != StatusMissed {
			t.Errorf("resolved act %d as %v, want act 7 missed", r.Activation, r.Status)
		}
		if entry := r.HandlerEntry.Sub(r.Start); entry < dMon {
			t.Errorf("handler entered %v after the start, before the %v deadline", entry, dMon)
		}
		if elapsed := time.Since(t0); elapsed > 200*time.Millisecond {
			t.Errorf("exception after %v, far too late", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout exception never fired")
	}
}

// TestWallclockMultipleSegmentsFixedOrder withholds the end events of one
// activation on two segments: both exceptions fire in the same pass, and
// the handlers run in segment registration order.
func TestWallclockMultipleSegmentsFixedOrder(t *testing.T) {
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(16) }, 1)
	order := make(chan string, 2)
	var segs []*LocalSegment
	for _, name := range []string{"a", "b"} {
		seg := mon.AddSegment(SegmentConfig{Name: name, DMon: 10 * time.Millisecond})
		seg.OnResolve(func(r Resolution) {
			if r.Status == StatusMissed {
				order <- name
			}
		})
		segs = append(segs, seg)
	}
	loop := startWallLoop(clock, sem, mon)
	defer loop.Stop()
	for _, seg := range segs {
		seg.StartInjected(0)
	}
	for _, want := range []string{"a", "b"} {
		select {
		case name := <-order:
			if name != want {
				t.Fatalf("exception handled on %s, want %s first", name, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: timeout exception never fired", want)
		}
	}
}

// TestWallclockBackToBackPairsNoFalseMiss replays the back-to-back probe: one
// producer posts each activation's start and end with no work in between,
// pausing every 2048 pairs until the monitor has drained both rings. A
// scan that drained the end ring past the snapshot it took before the
// start drain could take an end whose start was posted after the start
// drain finished, find nothing armed, discard it — and the on-time
// activation would expire as a false miss. Every end here is stamped
// microseconds after its start, far inside the 5 ms deadline, so the run
// must see no miss and no drop. The one exception is a pair the producer
// itself took d_mon or longer to post (descheduled between the two posts on
// a loaded machine): its end is late by its own timestamp, and it is
// excused by name, never by count.
func TestWallclockBackToBackPairsNoFalseMiss(t *testing.T) {
	const (
		pairs = 1 << 16
		burst = 2048
		dMon  = 5 * time.Millisecond
	)
	clock, sem := walltime.NewClock(), walltime.NewSem()
	mon := NewWallclockMonitor(clock, sem, func() rt.EventRing { return walltime.NewRing(2 * burst) }, 1)
	seg := mon.AddSegment(SegmentConfig{Name: "b2b", DMon: dMon, Period: time.Millisecond})
	var resolved atomic.Int64
	var missed []uint64 // monitor goroutine only, read after loop.Stop
	seg.OnResolve(func(r Resolution) {
		if r.Status != StatusOK {
			missed = append(missed, r.Activation)
		}
		resolved.Add(1)
	})
	loop := startWallLoop(clock, sem, mon)
	start, end := seg.core.StartRing(), seg.core.EndRing()
	slow := map[uint64]bool{} // pairs whose two posts spanned d_mon or more
	for act := uint64(0); act < pairs; act++ {
		t0 := clock.Now()
		seg.StartInjected(act)
		seg.EndInjected(act)
		if clock.Now().Sub(t0) >= dMon {
			slow[act] = true
		}
		if (act+1)%burst == 0 {
			settle(sem, func() bool { return start.Len() == 0 && end.Len() == 0 })
		}
	}
	settle(sem, func() bool { return resolved.Load() >= pairs })
	loop.Stop()
	if d := seg.Dropped(); d != 0 {
		t.Errorf("%d posts dropped", d)
	}
	if n := resolved.Load(); n != pairs {
		t.Errorf("%d verdicts for %d activations", n, pairs)
	}
	var falseMisses []uint64
	for _, act := range missed {
		if !slow[act] {
			falseMisses = append(falseMisses, act)
		}
	}
	if len(falseMisses) > 0 {
		t.Errorf("%d on-time activations missed (first %d); %d slow pairs excused",
			len(falseMisses), falseMisses[0], len(slow))
	}
}

// stepClock is a wall clock the test advances by hand.
type stepClock struct{ now rt.Time }

func (c *stepClock) Now() rt.Time { return c.now }

// nopWaker stands in for the monitor semaphore; the test calls ScanNow.
type nopWaker struct{}

func (nopWaker) Wake()      {}
func (nopWaker) ForceWake() {}

// TestWallclockExceptionAllocFree pins that, once warm, raising and handling
// a timeout on the wall clock allocates nothing per exception. With an
// allocation per exception, a wall-clock run's allocation count follows
// its number of misses, and that depends on how the producer is scheduled.
func TestWallclockExceptionAllocFree(t *testing.T) {
	const dMon = time.Millisecond
	clock := &stepClock{}
	mon := NewWallclockMonitor(clock, nopWaker{}, func() rt.EventRing { return walltime.NewRing(16) }, 1)
	seg := mon.AddSegment(SegmentConfig{Name: "w", DMon: dMon, Period: time.Millisecond})
	missed := 0
	seg.OnResolve(func(r Resolution) {
		if r.Status == StatusMissed {
			missed++
		}
	})
	var act uint64
	miss := func() {
		seg.StartInjected(act)
		act++
		clock.now += rt.Time(2 * dMon)
		mon.ScanNow()
	}
	// Warm up past the segment's bookkeeping horizon, so its maps and the
	// exception records have reached their steady size.
	for i := 0; i < 5000; i++ {
		miss()
	}
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, miss)
	if want := int(act); missed != want {
		t.Fatalf("%d of %d activations missed, want all", missed, want)
	}
	if allocs != 0 {
		t.Errorf("one missed activation allocates %.0f times, want 0", allocs)
	}
}

// TestWallclockRetainsNothingPerActivation pins what a wall-clock segment
// keeps: verdict counts and fixed-size bookkeeping, never a per-activation
// history, because it runs for as long as its host does. After a warm-up past
// the bookkeeping horizon, 200k more activations, every 50th missing its end,
// may grow the live heap by less than 32 KiB (0.16 B per activation). A
// segment that kept each Resolution, its latency and a MonLatency sample grew
// it by ~20 MB; verdict maps pruned to the horizon grew it by ~110 KB.
func TestWallclockRetainsNothingPerActivation(t *testing.T) {
	const (
		dMon      = time.Millisecond
		warm      = 20_000
		acts      = 200_000
		missEvery = 50
		maxGrowth = 32 << 10
	)
	clock := &stepClock{}
	mon := NewWallclockMonitor(clock, nopWaker{}, func() rt.EventRing { return walltime.NewRing(16) }, 1)
	seg := mon.AddSegment(SegmentConfig{Name: "w", DMon: dMon, Period: time.Millisecond})
	var act uint64
	run := func(n int) {
		for i := 0; i < n; i++ {
			seg.StartInjected(act)
			clock.now += rt.Time(20 * time.Microsecond)
			if act%missEvery != missEvery-1 {
				seg.EndInjected(act)
			}
			act++
			clock.now += rt.Time(80 * time.Microsecond)
			mon.ScanNow()
		}
	}
	run(warm)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(acts)
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Expire the last withheld ends, so every activation has its verdict.
	clock.now += rt.Time(2 * dMon)
	mon.ScanNow()

	st := seg.Stats()
	if n := len(st.Resolutions()); n != 0 {
		t.Errorf("%d resolutions kept, want none on the wall clock", n)
	}
	if n := st.Latencies().Len() + st.ExceptionLatencies().Len() + st.DetectionLatencies().Len(); n != 0 {
		t.Errorf("%d latency samples kept, want none on the wall clock", n)
	}
	if n := mon.Overheads().MonLatency.Len(); n != 0 {
		t.Errorf("%d monitor latency samples kept, want none on the wall clock", n)
	}
	total := warm + acts
	wantMissed := total / missEvery
	if ok, rec, missed := st.Counts(); ok != total-wantMissed || rec != 0 || missed != wantMissed {
		t.Errorf("ok=%d recovered=%d missed=%d, want %d/0/%d", ok, rec, missed, total-wantMissed, wantMissed)
	}
	if n := st.Exceptions(); n != wantMissed {
		t.Errorf("exceptions = %d, want %d", n, wantMissed)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap grew %d B over %d activations (%.2f B each)", grown, acts, float64(grown)/acts)
	if grown >= maxGrowth {
		t.Errorf("live heap grew %d B over %d activations, want below %d", grown, acts, maxGrowth)
	}
}

// TestWallclockArmNotBeforeStart pins the timeout-arm stamp against the wall
// clock's read order: a scan reads its time before it drains, so a start
// posted in between carries a later stamp than the scan. The arm must not
// sort before its start, or the activation's timeline opens at the arm.
func TestWallclockArmNotBeforeStart(t *testing.T) {
	clock := &stepClock{}
	mon := NewWallclockMonitor(clock, nopWaker{}, func() rt.EventRing { return walltime.NewRing(16) }, 1)
	sink := telemetry.NewSink(1 << 8)
	mon.AttachTelemetry(sink, "w")
	seg := mon.AddSegment(SegmentConfig{Name: "s", DMon: 15, Period: time.Millisecond})
	clock.now = 102 // the producer's post
	seg.StartInjected(0)
	clock.now = 100 // the scan read its time before the post landed
	mon.ScanNow()
	clock.now = 130
	mon.ScanNow()

	arms := 0
	for _, ev := range sink.Rec.Track("w/monitor").Events() {
		if ev.Kind != telemetry.KindTimeoutArm {
			continue
		}
		arms++
		if ev.TS < 102 {
			t.Errorf("timeout-arm stamped %d, before its start at 102", ev.TS)
		}
	}
	if arms != 1 {
		t.Errorf("%d timeout-arm events, want 1", arms)
	}
	if _, _, missed := seg.Stats().Counts(); missed != 1 {
		t.Errorf("missed = %d, want 1", missed)
	}
}
