// Package realtime drives the shared monitor core on the wall-clock
// runtime: a real producer goroutine posts start/end events for a
// quickstart-shaped two-segment workload, the walltime.Loop monitor
// goroutine drains rings and fires temporal exceptions at real deadlines,
// and live metrics are exported through the lock-free telemetry registry —
// safe to scrape over HTTP *while* the run is in progress (cmd/chainmon
// -realtime -metrics-addr).
//
// This is the "two timebases, one core" demonstration: the drain order,
// timeout queue and Algorithm 2 verdicts here are byte-for-byte the same
// code (internal/monitor on internal/runtime) the virtual-time experiments
// validate; only the clock underneath differs.
package realtime

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"chainmon/internal/livestats"
	"chainmon/internal/monitor"
	rt "chainmon/internal/runtime"
	"chainmon/internal/runtime/walltime"
	"chainmon/internal/telemetry"
	"chainmon/internal/weaklyhard"
)

// Segment names of the wall-clock scenario, shaped like the evaluation's
// ECU2 pair: both segments share their start event; "objects" always ends
// in time, "ground" is stalled past its deadline every LateEvery-th frame.
const (
	SegObjects = "rt/objects"
	SegGround  = "rt/ground"
)

// Config parameterizes a wall-clock run.
type Config struct {
	// Frames is the number of activations the producer emits.
	Frames int
	// Period is the real inter-activation period.
	Period time.Duration
	// Deadline is d_mon of both segments.
	Deadline time.Duration
	// Work is the nominal per-frame processing time before the end events
	// are posted; it must stay well below Deadline.
	Work time.Duration
	// LateEvery stalls every n-th frame's ground end event until after the
	// deadline (0 disables the fault).
	LateEvery int
	// RingCap is the per-segment ring capacity (power of two).
	RingCap int
	// Seed feeds the monitor's derived RNG streams (costs are constant on
	// the wall clock, so it only matters for future extensions).
	Seed int64
	// Live, when non-nil, receives the run's live health state: per-segment
	// latency sketches and (m,k) SLO burn tracking, plus a chain-level "rt"
	// scope driven by the ground segment (the verdict-bearing end of the
	// shared-start pair). Safe to scrape (Health/PublishMetrics) while the
	// run is in progress.
	Live *livestats.Set
	// Swaps are scripted mid-run deadline actuations: each is staged on the
	// monitor's budget table immediately before the named frame's start
	// events are posted. Because every scan applies staged budgets before
	// draining, the named frame and all later ones are supervised under the
	// new deadline on both timebases — which is what extends the
	// cross-timebase equivalence across actuations.
	Swaps []Swap
	// Budget, when non-nil, is attached to the monitor so an external
	// controller (cmd/chainmon -adaptive) can hot-swap deadlines while the
	// run is in progress. Swaps stage through the same table. When nil and
	// Swaps are present, Run creates a private table.
	Budget *monitor.BudgetTable
}

// Swap is one scripted deadline actuation of a wall-clock run.
type Swap struct {
	Frame   int           // staged before this frame's start events
	Segment string        // SegObjects or SegGround
	DMon    time.Duration // the new monitored deadline
}

// DefaultConfig is sized for a CI smoke run: 50 frames at 20 ms ≈ one
// second of wall time, with every 10th frame missing its 10 ms deadline.
func DefaultConfig() Config {
	return Config{
		Frames:    50,
		Period:    20 * time.Millisecond,
		Deadline:  10 * time.Millisecond,
		Work:      2 * time.Millisecond,
		LateEvery: 10,
		RingCap:   1024,
		Seed:      1,
	}
}

// Validate rejects configurations that cannot produce a meaningful run.
func (c Config) Validate() error {
	if c.Frames <= 0 {
		return fmt.Errorf("realtime: frames must be positive, got %d", c.Frames)
	}
	if c.Period <= 0 || c.Deadline <= 0 {
		return fmt.Errorf("realtime: period and deadline must be positive")
	}
	if c.Deadline >= c.Period {
		return fmt.Errorf("realtime: deadline %v must be below the period %v (a late end is posted one period after its start)", c.Deadline, c.Period)
	}
	if c.Work >= c.Deadline {
		return fmt.Errorf("realtime: nominal work %v must be below the deadline %v", c.Work, c.Deadline)
	}
	if c.RingCap&(c.RingCap-1) != 0 || c.RingCap <= 0 {
		return fmt.Errorf("realtime: ring capacity %d must be a power of two", c.RingCap)
	}
	for _, sw := range c.Swaps {
		if sw.Frame < 0 || sw.Frame >= c.Frames {
			return fmt.Errorf("realtime: swap frame %d outside the run's %d frames", sw.Frame, c.Frames)
		}
		if sw.Segment != SegObjects && sw.Segment != SegGround {
			return fmt.Errorf("realtime: swap names unknown segment %q", sw.Segment)
		}
		if sw.DMon <= 0 || sw.DMon >= c.Period {
			return fmt.Errorf("realtime: swap deadline %v must be in (0, period %v) — a late end is posted one period after its start", sw.DMon, c.Period)
		}
	}
	return nil
}

// swapsFor collects the updates staged before frame act's start events, in
// declaration order.
func (c Config) swapsFor(act int) []monitor.DeadlineUpdate {
	var ups []monitor.DeadlineUpdate
	for _, sw := range c.Swaps {
		if sw.Frame == act {
			ups = append(ups, monitor.DeadlineUpdate{Segment: sw.Segment, DMon: sw.DMon})
		}
	}
	return ups
}

// SegmentResult is one segment's verdict accounting after the run. Every
// activation the producer started ends in OK, Missed or Recovered, or is
// still Pending (armed without a verdict when the loop stopped); Dropped
// counts the posts a full ring rejected.
type SegmentResult struct {
	Name      string
	OK        int
	Missed    int
	Recovered int
	Pending   int
	Dropped   int
}

// Result is the outcome of one wall-clock run.
type Result struct {
	Elapsed  time.Duration
	Frames   int
	Scans    uint64
	Segments []SegmentResult
}

// Summary renders the result as the CLI report.
func (r Result) Summary(w io.Writer) {
	fmt.Fprintf(w, "wall-clock run: %d frames in %v (%d monitor passes)\n",
		r.Frames, r.Elapsed.Round(time.Millisecond), r.Scans)
	for _, s := range r.Segments {
		fmt.Fprintf(w, "  %-12s ok=%d missed=%d recovered=%d pending=%d dropped=%d\n",
			s.Name, s.OK, s.Missed, s.Recovered, s.Pending, s.Dropped)
	}
}

// Run executes the wall-clock scenario. The caller's goroutine is the
// producer (the instrumented application threads of the paper); the monitor
// runs on its own OS-locked goroutine. sink receives live metrics and may be
// scraped concurrently throughout; nil leaves the run dark.
//
// With a full sink (sink.Rec != nil) the run is also flow-traced: the
// producer emulates the pipeline hops of one frame — dds-send on
// "rt/producer", net-send on "rt/net", dds-recv back on "rt/producer" —
// before posting the start events, all tagged with the frame's flow identity
// in scope "rt"; the monitor's ring-post, arm/fire and verdict events carry
// the same flow, so the converted trace links dds-send → net → dds-recv →
// verdict for every activation. A registry-only sink (sink.Rec == nil) gets
// the same metrics from the monitor's telemetry attach, without the trace.
func Run(cfg Config, sink *telemetry.Sink) (Result, error) {
	return run(cfg, sink, nil)
}

// run is Run with observe, when non-nil, called on the monitor goroutine
// with each segment's resolutions in activation order (seg 0 is SegObjects,
// 1 is SegGround).
func run(cfg Config, sink *telemetry.Sink, observe func(seg int, r monitor.Resolution)) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}

	clock := walltime.NewClock()
	sem := walltime.NewSem()
	mon := monitor.NewWallclockMonitor(clock, sem,
		func() rt.EventRing { return walltime.NewRing(cfg.RingCap) }, cfg.Seed)
	budget := cfg.Budget
	if budget == nil && len(cfg.Swaps) > 0 {
		budget = monitor.NewBudgetTable()
	}
	if budget != nil {
		mon.AttachBudget(budget)
	}

	traced := sink != nil && sink.Rec != nil
	var frames *telemetry.Counter
	if sink != nil {
		frames = sink.Reg.Counter("chainmon_realtime_frames_total",
			"Activations emitted by the wall-clock producer.")
	}

	// Flow tracing: both segments describe the same frame stream, so they
	// share flow scope "rt" — one flow per activation, forking into the two
	// segments (the evaluation's shared start event).
	var scope uint8
	var prodTrack, netTrack *telemetry.Track
	var frameLbl, linkLbl uint16
	if traced {
		sink.Rec.BindFlow(SegObjects, "rt")
		sink.Rec.BindFlow(SegGround, "rt")
		scope = sink.Rec.FlowScope(SegObjects)
		prodTrack = sink.Rec.Track("rt/producer")
		netTrack = sink.Rec.Track("rt/net")
		frameLbl = sink.Rec.Intern("rt/frames")
		linkLbl = sink.Rec.Intern("rt/link")
	}

	mk := weaklyhard.Constraint{M: 1, K: 5}
	segs := make([]*monitor.LocalSegment, 0, 2)
	for i, name := range []string{SegObjects, SegGround} {
		seg := mon.AddSegment(monitor.SegmentConfig{
			Name: name, DMon: cfg.Deadline, DEx: time.Millisecond,
			Period: cfg.Period, Constraint: mk,
		})
		if observe != nil {
			seg.OnResolve(func(r monitor.Resolution) { observe(i, r) })
		}
		segs = append(segs, seg)
	}
	objects, ground := segs[0], segs[1]
	mon.AttachTelemetry(sink, "rt")
	if cfg.Live != nil {
		cfg.Live.SetTimebase("wall")
		mon.AttachLive(cfg.Live)
		// Chain-level (m,k): the two segments share their start event and
		// the ground segment carries the verdict (the objects segment never
		// misses), so the chain window slides on ground resolutions.
		chain := monitor.NewChain("rt", cfg.Deadline+time.Millisecond, cfg.Deadline+time.Millisecond, mk)
		chain.Append(objects).Append(ground).Seal()
		chain.AttachLive(cfg.Live)
	}

	var scanCount atomic.Uint64
	loop := walltime.NewLoop(clock, sem)
	loop.Scan = func() {
		mon.ScanNow()
		scanCount.Add(1)
	}
	loop.Next = mon.Core().NextDeadline
	start := time.Now()
	loop.Start()

	// The producer: one activation per period; both segments start
	// together, objects always ends after Work, ground is stalled past the
	// deadline on every LateEvery-th frame (posted on the next iteration,
	// no earlier than one period after its start).
	lateGround := -1
	var lateDue time.Time
	next := time.Now()
	for act := 0; act < cfg.Frames; act++ {
		time.Sleep(time.Until(next))
		next = next.Add(cfg.Period)

		if lateGround >= 0 {
			// A full period after its start, the held end is stamped past
			// every deadline Validate admits, even when this iteration woke
			// early relative to a late start.
			time.Sleep(time.Until(lateDue))
			ground.EndInjected(uint64(lateGround))
			lateGround = -1
		}

		if ups := cfg.swapsFor(act); ups != nil {
			// Staged before this frame's starts are posted: the scan that
			// drains them applies the table first, so this frame onward runs
			// under the new deadlines while in-flight activations keep the
			// deadline they were armed with.
			budget.Stage(ups)
		}

		if traced {
			// Emulated pipeline hops of this frame, all on the producer
			// goroutine (single writer of both tracks): publish, wire,
			// deliver — then the StartInjected posts below continue the flow.
			flow := telemetry.FlowID(scope, uint64(act))
			sent := int64(clock.Now())
			prodTrack.Append(telemetry.Event{
				TS: sent, Act: uint64(act), Flow: flow,
				Kind: telemetry.KindDDSSend, Label: frameLbl,
			})
			netTrack.Append(telemetry.Event{
				TS: sent, Act: uint64(act), Flow: flow,
				Kind: telemetry.KindNetSend, Label: linkLbl,
			})
			recv := int64(clock.Now())
			prodTrack.Append(telemetry.Event{
				TS: recv, Act: uint64(act), Arg: recv - sent, Flow: flow,
				Kind: telemetry.KindDDSRecv, Label: frameLbl,
			})
		}
		objects.StartInjected(uint64(act))
		ground.StartInjected(uint64(act))
		started := time.Now()
		if frames != nil {
			frames.Inc()
		}

		time.Sleep(cfg.Work)
		objects.EndInjected(uint64(act))
		if cfg.LateEvery > 0 && act%cfg.LateEvery == cfg.LateEvery-1 {
			lateGround = act
			lateDue = started.Add(cfg.Period)
		} else {
			ground.EndInjected(uint64(act))
		}
	}
	if lateGround >= 0 {
		time.Sleep(time.Until(lateDue))
		ground.EndInjected(uint64(lateGround))
	}
	// Let the last deadlines expire; Stop's final pass drains the last ends.
	time.Sleep(cfg.Deadline + 20*time.Millisecond)
	loop.Stop()

	// The monitor goroutine has exited, so its verdict accounting is ours
	// to read.
	results := make([]SegmentResult, 0, len(segs))
	for i, seg := range segs {
		st := seg.Stats()
		ok, rec, missed := st.Counts()
		results = append(results, SegmentResult{
			Name: st.Name, OK: ok, Missed: missed, Recovered: rec,
			Pending: mon.Core().Segments()[i].Pending(), Dropped: seg.Dropped(),
		})
	}
	return Result{
		Elapsed:  time.Since(start),
		Frames:   cfg.Frames,
		Scans:    scanCount.Load(),
		Segments: results,
	}, nil
}
