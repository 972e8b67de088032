package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"chainmon/internal/livestats"
	"chainmon/internal/monitor"
	rt "chainmon/internal/runtime"
	"chainmon/internal/runtime/walltime"
	"chainmon/internal/sim"
	"chainmon/internal/weaklyhard"
)

// Shape of the wall_monitor load: wallSegments segments, each activated
// every wallPeriod with a seeded phase. End events follow after a seeded
// work time below d_mon/2. A seeded 2% of them are late instead: a quarter
// of those ("edge" ends) wallEdgeMargin past the deadline, where a loop that
// oversleeps drains the end before it fires the deadline and judges the
// activation OK; the rest ("clear" ends) wallClearMargin past it, far enough
// that they always miss, so the miss count and the detection latencies do
// not depend on how the loop slept.
const (
	wallSegments    = 16
	wallPeriod      = time.Millisecond
	wallDMon        = 5 * time.Millisecond
	wallMinWork     = 100 * time.Microsecond
	wallEdgeShare   = 0.005
	wallClearShare  = 0.015
	wallEdgeMargin  = time.Millisecond
	wallClearMargin = 3 * time.Millisecond
	wallRingCap     = 1024
	// wallSetups is how many times set-up is repeated for its median.
	wallSetups = 51
)

// wallEvent is one scheduled post of the open-loop producer.
type wallEvent struct {
	due int64 // ns after the producer's start
	act uint32
	seg uint16
	end bool
}

// Kinds of activation in a wall plan.
const (
	onTime uint8 = iota
	edgeLate
	clearLate
)

// wallPlan is the generated input of one wall_monitor run.
type wallPlan struct {
	events []wallEvent // in due order
	acts   int         // activations per segment
	kind   [][]uint8   // per segment and activation: onTime, edgeLate or clearLate
	edge   int
	clear  int
}

// wallSchedule generates the producer's schedule for a run of the given
// length. It is a pure function of the seed.
func wallSchedule(seed int64, length time.Duration) wallPlan {
	rng := sim.NewRNG(seed).Derive("wall-monitor")
	acts := int(length / wallPeriod)
	p := wallPlan{acts: acts, events: make([]wallEvent, 0, 2*acts*wallSegments)}
	for seg := 0; seg < wallSegments; seg++ {
		phase := int64(rng.Uniform(0, float64(wallPeriod)))
		kinds := make([]uint8, acts)
		p.kind = append(p.kind, kinds)
		for a := 0; a < acts; a++ {
			start := phase + int64(a)*int64(wallPeriod)
			work := int64(rng.Uniform(float64(wallMinWork), float64(wallDMon/2)))
			switch u := rng.Float64(); {
			case a == 0:
				// A segment's verdict stream starts at the first activation
				// that resolves, so the first one must resolve before the
				// second: it gets the shortest work and is never late.
				work = int64(wallMinWork)
			case u < wallEdgeShare:
				work = int64(wallDMon + wallEdgeMargin)
				kinds[a] = edgeLate
				p.edge++
			case u < wallEdgeShare+wallClearShare:
				work = int64(wallDMon + wallClearMargin)
				kinds[a] = clearLate
				p.clear++
			}
			p.events = append(p.events,
				wallEvent{due: start, act: uint32(a), seg: uint16(seg)},
				wallEvent{due: start + work, act: uint32(a), seg: uint16(seg), end: true})
		}
	}
	sort.Slice(p.events, func(i, j int) bool {
		a, b := p.events[i], p.events[j]
		if a.due != b.due {
			return a.due < b.due
		}
		if a.seg != b.seg {
			return a.seg < b.seg
		}
		return !a.end && b.end
	})
	return p
}

// wallRig is a wall-clock monitor wired as internal/realtime wires it: SPSC
// rings, a walltime.Loop sleeping until Core().NextDeadline, and a live set.
type wallRig struct {
	clock *walltime.Clock
	sem   *walltime.Sem
	mon   *monitor.LocalMonitor
	loop  *walltime.Loop
	segs  []*monitor.LocalSegment

	// Written on the monitor goroutine only; read after loop.Stop.
	verdicts [][]uint8
	detectNS []int64 // clear-late misses: verdict seen − (start + d_mon)
	lateOK   [3]int  // OK verdicts with a latency above d_mon, by kind
	busyNS   int64
	scans    int64
	// Traced only: per-scan durations and oversleeps (monitor goroutine),
	// start-post durations and post lateness (producer goroutine).
	traced     bool
	scanNS     []int64
	oversleeps []int64
	postNS     []int64
	lateNS     []int64
	nextDL     rt.Time
	nextOK     bool

	resolved atomic.Int64
}

// newWallRig builds the monitor, its segments and the live set, and starts
// the monitor loop.
func newWallRig(seed int64, p wallPlan, traced bool) *wallRig {
	acts := p.acts
	w := &wallRig{clock: walltime.NewClock(), sem: walltime.NewSem(), traced: traced}
	w.mon = monitor.NewWallclockMonitor(w.clock, w.sem,
		func() rt.EventRing { return walltime.NewRing(wallRingCap) }, seed)
	w.verdicts = make([][]uint8, wallSegments)
	w.detectNS = make([]int64, 0, acts*wallSegments/10)
	for i := 0; i < wallSegments; i++ {
		seg := w.mon.AddSegment(monitor.SegmentConfig{
			Name: fmt.Sprintf("wall/%02d", i), DMon: wallDMon, DEx: time.Millisecond,
			Period: wallPeriod, Constraint: weaklyhard.Constraint{M: 1, K: 5},
		})
		w.verdicts[i] = make([]uint8, acts)
		counts, kinds := w.verdicts[i], p.kind[i]
		seg.OnResolve(func(r monitor.Resolution) {
			if int(r.Activation) >= len(counts) {
				return
			}
			counts[r.Activation]++
			kind := kinds[r.Activation]
			switch {
			case r.Status == monitor.StatusMissed && kind == clearLate:
				seen := int64(w.clock.Now())
				w.detectNS = append(w.detectNS, seen-int64(r.Start)-int64(wallDMon))
			case r.Status == monitor.StatusOK && r.Latency > wallDMon:
				w.lateOK[kind]++
			}
			w.resolved.Add(1)
		})
		w.segs = append(w.segs, seg)
	}
	live := livestats.NewSet(0)
	live.SetTimebase("wall")
	w.mon.AttachLive(live)

	w.loop = walltime.NewLoop(w.clock, w.sem)
	core := w.mon.Core()
	w.loop.Next = func() (rt.Time, bool) {
		w.nextDL, w.nextOK = core.NextDeadline()
		return w.nextDL, w.nextOK
	}
	w.loop.Scan = w.scan
	if traced {
		w.scanNS = make([]int64, 0, 1<<20)
		w.oversleeps = make([]int64, 0, 1<<20)
		w.postNS = make([]int64, 0, acts*wallSegments)
		w.lateNS = make([]int64, 0, len(p.events))
	}
	w.loop.Start()
	return w
}

// scan wraps one monitor pass with its timing. On a pass that starts past
// the deadline the loop slept for, the excess is the loop's oversleep.
func (w *wallRig) scan() {
	t0 := w.clock.Now()
	if w.traced && w.nextOK && t0 >= w.nextDL {
		w.oversleeps = append(w.oversleeps, int64(t0-w.nextDL))
	}
	w.mon.ScanNow()
	d := int64(w.clock.Now() - t0)
	w.busyNS += d
	w.scans++
	if w.traced {
		w.scanNS = append(w.scanNS, d)
	}
}

// wallLoad is what the producer measured.
type wallLoad struct {
	elapsed   time.Duration // first post to last post
	settled   time.Duration // first post to the last verdict
	posted    int           // activations started
	unsettled int64         // verdicts still missing at the settle timeout
}

// drive runs the open-loop producer over the plan: each post waits for its
// due time (never for the monitor), and a producer that falls behind posts
// the overdue events at once.
func (w *wallRig) drive(p wallPlan) wallLoad {
	var ld wallLoad
	base := w.clock.Now()
	for _, ev := range p.events {
		now := int64(w.clock.Now() - base)
		if wait := ev.due - now; wait > 0 {
			time.Sleep(time.Duration(wait))
			now = int64(w.clock.Now() - base)
		}
		seg := w.segs[ev.seg]
		if ev.end {
			seg.EndInjected(uint64(ev.act))
		} else if w.traced {
			t0 := w.clock.Now()
			seg.StartInjected(uint64(ev.act))
			w.postNS = append(w.postNS, int64(w.clock.Now()-t0))
		} else {
			seg.StartInjected(uint64(ev.act))
		}
		if !ev.end {
			ld.posted++
		}
		if w.traced {
			w.lateNS = append(w.lateNS, now-ev.due)
		}
	}
	ld.elapsed = time.Duration(w.clock.Now() - base)
	// Let the last deadlines expire and every verdict arrive.
	want := int64(p.acts * wallSegments)
	settle := time.Now().Add(wallDMon + time.Second)
	for w.resolved.Load() < want && time.Now().Before(settle) {
		w.sem.Wake()
		time.Sleep(100 * time.Microsecond)
	}
	ld.settled = time.Duration(w.clock.Now() - base)
	ld.unsettled = want - w.resolved.Load()
	w.loop.Stop()
	return ld
}

// verdictFaults counts activations without exactly one verdict.
func (w *wallRig) verdictFaults() int64 {
	var bad int64
	for _, counts := range w.verdicts {
		for _, c := range counts {
			if c != 1 {
				bad++
			}
		}
	}
	return bad
}

func toDist(name string, ns []int64) dist {
	vs := make([]float64, len(ns))
	for i, v := range ns {
		vs[i] = float64(v)
	}
	return newDist(name, vs)
}

// wallMonitor measures the wall-clock deployment path for the whole budget.
func wallMonitor(seed int64, budget time.Duration, traced bool, out *outcome) error {
	plan := wallSchedule(seed, budget)

	spd := newSpeed()
	var setupS []float64
	var w *wallRig
	f := spd.sample()
	for i := 0; i < wallSetups; i++ {
		if w != nil {
			w.loop.Stop()
		}
		runtime.GC()
		t0 := time.Now()
		w = newWallRig(seed, plan, traced)
		setupS = append(setupS, time.Since(t0).Seconds()/f)
	}

	heap0 := liveHeapMB()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ld := w.drive(plan)
	runtime.ReadMemStats(&m1)
	heap1 := liveHeapMB()

	acts := float64(plan.acts * wallSegments)
	out.attempted = int64(plan.acts * wallSegments)
	out.failed = w.verdictFaults()
	if out.failed != 0 {
		out.fail("%d of %d activations did not get exactly one verdict (%d still unresolved at the end)",
			out.failed, out.attempted, ld.unsettled)
	}
	if ld.posted != plan.acts*wallSegments {
		out.fail("posted %d activations, planned %d", ld.posted, plan.acts*wallSegments)
	}
	lateOK := w.lateOK[edgeLate] + w.lateOK[clearLate]
	out.note("wall_monitor: %d segments × %d activations; late ends judged OK: %d of %d edge, %d of %d clear",
		wallSegments, plan.acts, w.lateOK[edgeLate], plan.edge, w.lateOK[clearLate], plan.clear)

	detect := toDist("detection latency", w.detectNS)
	busy := time.Duration(w.busyNS)
	if !traced {
		out.set("setup_s", median(setupS))
		out.note("monitor busy %.3g%% of the run, reference pass %.3g ms", 100*busy.Seconds()/ld.elapsed.Seconds(), spd.passMS())
		out.set("throughput_per_s", float64(w.resolved.Load())/ld.settled.Seconds())
		out.set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/acts)
		out.set("heap_mb", heap1)
		out.setPct("latency_us_p50", detect, 0.5, 1e-3)
		return nil
	}
	out.set("machine.ref_pass_ms", spd.passMS())
	post := toDist("start post", w.postNS)
	out.tryPct("monitor.post_ns_p50", post, 0.5, 1)
	out.tryPct("monitor.post_ns_p99", post, 0.99, 1)
	out.tryPct("monitor.detect_us_p50", detect, 0.5, 1e-3)
	out.tryPct("monitor.detect_us_p99", detect, 0.99, 1e-3)
	out.set("monitor.cpu_share", busy.Seconds()/ld.elapsed.Seconds())
	out.set("monitor.late_ok", float64(lateOK))
	out.set("monitor.retained_bytes_per_activation", (heap1-heap0)*1e6/acts)
	scan := toDist("scan duration", w.scanNS)
	out.tryPct("runtime.scan_us_p50", scan, 0.5, 1e-3)
	out.tryPct("runtime.scan_us_p99", scan, 0.99, 1e-3)
	out.set("runtime.scans_per_s", float64(w.scans)/ld.elapsed.Seconds())
	over := toDist("loop oversleep", w.oversleeps)
	out.tryPct("walltime.oversleep_us_p50", over, 0.5, 1e-3)
	out.tryPct("walltime.oversleep_us_p99", over, 0.99, 1e-3)
	lat := toDist("generator lateness", w.lateNS)
	out.tryPct("generator.lateness_us_p50", lat, 0.5, 1e-3)
	out.tryPct("generator.lateness_us_p99", lat, 0.99, 1e-3)
	return nil
}
