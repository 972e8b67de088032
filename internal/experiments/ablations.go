package experiments

import (
	"fmt"
	"io"

	"chainmon/internal/dds"
	"chainmon/internal/monitor"
	"chainmon/internal/netsim"
	"chainmon/internal/parallel"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
	"chainmon/internal/stats"
	"chainmon/internal/vclock"
	"chainmon/internal/weaklyhard"
)

// This file contains ablation studies of the design choices DESIGN.md
// calls out: the ε term of the synchronization-based deadline formula, the
// segment deadline itself (the trade-off the budgeting step resolves), and
// the monitor thread's fixed buffer processing order.

// EpsilonRow is one point of the clock-error sweep.
type EpsilonRow struct {
	Epsilon sim.Duration
	// Compensated: dMon includes the ε term (the paper's formula) — no
	// false positives are expected.
	CompensatedFalsePos int
	// Uncompensated: dMon omits ε — clock disagreement alone produces
	// spurious exceptions once ε approaches the slack.
	UncompensatedFalsePos int
	Activations           int
}

// RunEpsilonAblation sweeps the clock synchronization error ε and counts
// false positives of the synchronization-based remote monitor with and
// without the ε term in d_mon (the paper: d_mon = BCRT + J^R + J^a + ε).
// All traffic is delivered on time, so every raised exception is spurious.
// The sweep points are independent simulations and are sharded over the
// worker pool (workers ≤ 0: GOMAXPROCS; 1: serial).
func RunEpsilonAblation(activations int, seed int64, epsilons []sim.Duration, workers int) []EpsilonRow {
	period := 100 * sim.Millisecond
	// The link: fixed BCRT, bounded jitter. Slack beyond BCRT+J^R is tiny
	// so that uncompensated clock error shows up immediately.
	bcrt := 500 * sim.Microsecond
	jr := 300 * sim.Microsecond

	run := func(eps sim.Duration, compensate bool) int {
		k := sim.NewKernel()
		d := dds.NewDomain(k, sim.NewRNG(seed))
		d.KsoftirqCost = sim.Constant(0)
		d.DeliverCost = sim.Constant(0)
		d.SetLink("tx", "rx", netsim.Config{
			BCRT:   bcrt,
			Jitter: sim.UniformDist{Lo: 0, Hi: jr},
		})
		e1 := d.NewECU("tx", 2, vclock.Config{Epsilon: eps, DriftStep: eps})
		e2 := d.NewECU("rx", 2, vclock.Config{Epsilon: eps, DriftStep: eps})
		for _, e := range []*dds.ECU{e1, e2} {
			e.Proc.CtxSwitch = sim.Constant(0)
			e.Proc.Wakeup = sim.Constant(0)
		}
		sender := e1.NewNode("s", dds.PrioExecBase)
		receiver := e2.NewNode("r", dds.PrioExecBase)
		pub := sender.NewPublisher("data")
		sub := receiver.Subscribe("data", nil, nil)
		lm := monitor.NewLocalMonitor(e2)
		dmon := bcrt + jr + 100*sim.Microsecond // +J^a slack (devices are exact here)
		if compensate {
			dmon += 2 * eps // sender and receiver may err in opposite directions
		}
		rm := monitor.NewRemoteMonitor(sub, monitor.SegmentConfig{
			Name: "r", DMon: dmon, Period: period,
			Constraint: weaklyhard.Constraint{M: 1, K: 1},
		}, monitor.VariantMonitorThread, lm)
		rm.SetLastActivation(uint64(activations - 1))
		for i := 0; i < activations; i++ {
			act := uint64(i)
			k.At(sim.Time(act)*sim.Time(period), func() { pub.Publish(act, nil, 64) })
		}
		horizon := sim.Time(activations) * sim.Time(period)
		k.At(horizon, rm.Stop)
		k.RunUntil(horizon.Add(sim.Second))
		_, _, miss := rm.Stats().Counts()
		return miss
	}

	return parallel.MapSlice(workers, epsilons, func(shard int, eps sim.Duration) EpsilonRow {
		return EpsilonRow{
			Epsilon:               eps,
			CompensatedFalsePos:   run(eps, true),
			UncompensatedFalsePos: run(eps, false),
			Activations:           activations,
		}
	})
}

// ReportEpsilonAblation prints the sweep.
func ReportEpsilonAblation(w io.Writer, rows []EpsilonRow) {
	section(w, "Ablation — the ε term of d_mon = BCRT + J^R + J^a + ε",
		"All traffic is on time; every exception is a false positive caused by\n"+
			"clock disagreement. With the ε term included (the paper's formula) the\n"+
			"monitor stays silent; without it, spurious exceptions appear once the\n"+
			"synchronization error eats the deadline slack.")
	fmt.Fprintf(w, "%-12s %22s %22s\n", "ε", "false-pos (with ε term)", "false-pos (without)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12v %22d %22d\n", r.Epsilon, r.CompensatedFalsePos, r.UncompensatedFalsePos)
	}
}

// DeadlineRow is one point of the segment-deadline sweep.
type DeadlineRow struct {
	DMon          sim.Duration
	ObjectsMisses int
	GroundMisses  int
	Activations   int
	// ChainBudget is 2·d_mon + overheads — what the end-to-end budget
	// would need to accommodate at this per-segment deadline.
	MaxLatency sim.Duration
}

// RunDeadlineSweep varies the monitored deadline of the two evaluation
// segments and reports the resulting miss counts — the trade-off between
// reaction time and miss rate that the Section III-C budgeting resolves
// against the (m,k) constraint.
// The sweep points are independent simulations and are sharded over the
// worker pool (workers ≤ 0: GOMAXPROCS; 1: serial).
func RunDeadlineSweep(frames int, seed int64, deadlines []sim.Duration, workers int) []DeadlineRow {
	return parallel.MapSlice(workers, deadlines, func(shard int, dmon sim.Duration) DeadlineRow {
		cfg := perception.DefaultConfig()
		cfg.Frames = frames
		cfg.Seed = seed
		cfg.LocalDeadline = dmon
		s := perception.Build(cfg)
		s.Run()
		_, _, om := s.SegObjects.Stats().Counts()
		_, _, gm := s.SegGround.Stats().Counts()
		return DeadlineRow{
			DMon:          dmon,
			ObjectsMisses: om,
			GroundMisses:  gm,
			Activations:   frames,
			MaxLatency:    sim.Duration(s.SegObjects.Stats().Latencies().Max()),
		}
	})
}

// ReportDeadlineSweep prints the sweep.
func ReportDeadlineSweep(w io.Writer, rows []DeadlineRow) {
	section(w, "Ablation — segment deadline d_mon vs miss rate",
		"Tightening the monitored deadline guarantees earlier reactions but\n"+
			"raises the miss rate the (m,k) constraint must absorb; the budgeting\n"+
			"CSP picks the smallest deadlines the constraint tolerates.")
	fmt.Fprintf(w, "%-10s %14s %14s %16s\n", "d_mon", "objects-miss", "ground-miss", "max latency")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10v %9d/%d %9d/%d %16v\n",
			r.DMon, r.ObjectsMisses, r.Activations, r.GroundMisses, r.Activations, r.MaxLatency)
	}
}

// MigrationRow compares global (migrating) and partitioned scheduling.
type MigrationRow struct {
	Scheduling    string
	ObjectsMisses int
	GroundMisses  int
	ObjectsP99    sim.Duration
	Activations   int
}

// RunMigrationAblation compares the evaluation's free-migration setup
// against two static partitions of ECU2: a balanced one (the heavy
// services isolated on distinct cores) and a pathological colocated one
// (all heavy services share a core).
// The three runs are independent simulations and are sharded over the
// worker pool (workers ≤ 0: GOMAXPROCS; 1: serial).
func RunMigrationAblation(frames int, seed int64, workers int) []MigrationRow {
	run := func(partition, name string) MigrationRow {
		cfg := perception.DefaultConfig()
		cfg.Frames = frames
		cfg.Seed = seed
		cfg.Monitored = false
		cfg.Partition = partition
		s := perception.Build(cfg)
		rec := s.RecordTrace()
		s.Run()
		tr := rec.Trace()
		obj := tr.Segment(perception.SegObjectsLocal).Sample()
		gnd := tr.Segment(perception.SegGroundLocal).Sample()
		deadline := float64(100 * sim.Millisecond)
		return MigrationRow{
			Scheduling:    name,
			ObjectsMisses: obj.CountAbove(deadline),
			GroundMisses:  gnd.CountAbove(deadline),
			ObjectsP99:    sim.Duration(obj.Quantile(0.99)),
			Activations:   obj.Len(),
		}
	}
	setups := []struct{ partition, name string }{
		{"", "global (migration, paper)"},
		{"balanced", "partitioned, balanced"},
		{"colocated", "partitioned, colocated"},
	}
	return parallel.MapSlice(workers, setups, func(shard int, s struct{ partition, name string }) MigrationRow {
		return run(s.partition, s.name)
	})
}

// ReportMigrationAblation prints the comparison.
func ReportMigrationAblation(w io.Writer, rows []MigrationRow) {
	section(w, "Ablation — free thread migration vs static partitioning on ECU2",
		"The evaluation allowed migration between cores. A well-chosen static\n"+
			"partition (heavy services isolated) can match or beat migration, but a\n"+
			"poor one (heavy services colocated) is catastrophic — migration buys\n"+
			"robustness against placement mistakes, at the cost of predictability.")
	fmt.Fprintf(w, "%-28s %14s %14s %14s\n", "scheduling", "objects>100ms", "ground>100ms", "objects p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %10d/%d %10d/%d %14v\n",
			r.Scheduling, r.ObjectsMisses, r.Activations, r.GroundMisses, r.Activations, r.ObjectsP99)
	}
}

// OrderRow compares the fixed buffer processing orders.
type OrderRow struct {
	Order string
	// MeanJointGap is the mean handler-entry gap (second − first segment)
	// over activations where both segments raised exceptions.
	MeanJointGap sim.Duration
	JointCount   int
}

// RunOrderAblation flips the monitor thread's fixed buffer processing order
// (objects-first, as in the evaluation, vs ground-first) and measures which
// segment's exception handling is delayed behind the other's.
// The two runs are independent simulations and are sharded over the worker
// pool (workers ≤ 0: GOMAXPROCS; 1: serial).
func RunOrderAblation(frames int, seed int64, workers int) []OrderRow {
	run := func(groundFirst bool) OrderRow {
		cfg := perception.DefaultConfig()
		cfg.Frames = frames
		cfg.Seed = seed
		cfg.GroundFirst = groundFirst
		s := perception.Build(cfg)
		s.Run()
		objEntry := map[uint64]sim.Time{}
		for _, r := range s.SegObjects.Stats().Resolutions() {
			if r.Exception {
				objEntry[r.Activation] = r.HandlerEntry
			}
		}
		gaps := stats.NewSample()
		for _, r := range s.SegGround.Stats().Resolutions() {
			if r.Exception {
				if oe, ok := objEntry[r.Activation]; ok {
					gaps.AddDuration(r.HandlerEntry.Sub(oe))
				}
			}
		}
		name := "objects-first (paper)"
		if groundFirst {
			name = "ground-first (ablation)"
		}
		return OrderRow{Order: name, MeanJointGap: sim.Duration(gaps.Mean()), JointCount: gaps.Len()}
	}
	return parallel.Map(workers, 2, func(shard int) OrderRow {
		return run(shard == 1)
	})
}

// ReportOrderAblation prints the comparison.
func ReportOrderAblation(w io.Writer, rows []OrderRow) {
	section(w, "Ablation — fixed buffer processing order of the monitor thread",
		"On activations where both segments raise exceptions, the segment\n"+
			"registered second enters its handler after the first one's handling\n"+
			"(the Fig. 10 asymmetry). Flipping the registration order flips the\n"+
			"sign of the ground-minus-objects handler entry gap.")
	fmt.Fprintf(w, "%-26s %18s %8s\n", "order", "mean gap (gnd−obj)", "joint n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %18v %8d\n", r.Order, r.MeanJointGap, r.JointCount)
	}
}
