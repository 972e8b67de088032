// Sweep is the sharded campaign engine: the chaos matrices (campaign × seed
// × monitor variant) are expressed as plain combo lists and fanned out over
// the parallel worker pool. Every combo builds its own kernel, RNG streams
// and telemetry from its seed — nothing is shared between shards — and the
// results are merged in combo order, so a parallel sweep produces output
// byte-identical to a serial one.
package faultinject

import (
	"fmt"
	"strings"

	"chainmon/internal/monitor"
	"chainmon/internal/parallel"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
)

// chaosFrames keeps a single campaign run at 12 s of virtual time.
const chaosFrames = 120

// Run bundles one fully executed campaign run: the system under test, the
// ground-truth oracle and its cross-check report.
type Run struct {
	Sys    *perception.System
	Oracle *Oracle
	Report Report
}

// Combo is one cell of a sweep: a campaign run at a seed under a monitor
// variant, optionally with scheduled deadline actuations riding along.
type Combo struct {
	Campaign Campaign
	Seed     int64
	Variant  monitor.RemoteVariant
	// Swaps are deadline actuations staged mid-run through the hot-swappable
	// budget table, in staging order. The oracle is told about each one, so
	// its soundness checks stay exact across the epoch boundaries.
	Swaps []BudgetSwap
}

// BudgetSwap schedules one deadline actuation: at virtual time At, the
// named local segment's monitored deadline is re-staged to DMon.
type BudgetSwap struct {
	At      Duration
	Segment string
	DMon    Duration
}

// String renders the combo as a stable sweep-cell label.
func (c Combo) String() string {
	return fmt.Sprintf("%s/seed%d/%s", c.Campaign.Name, c.Seed, c.Variant)
}

// RunCombo builds a full-chain perception system for the combo's seed,
// injects the campaign, wires the ground-truth oracle and runs to
// completion. Each call constructs everything from the seed, so combos can
// run on any goroutine in any order.
func RunCombo(c Combo) (*Run, error) {
	cfg := perception.DefaultConfig()
	cfg.Seed = c.Seed
	cfg.Frames = chaosFrames
	cfg.FullChain = true
	cfg.RemoteVariant = c.Variant
	sys := perception.Build(cfg)

	orc := ForPerception(sys, c.Campaign)
	if len(c.Swaps) > 0 {
		// Actuations go through the same staged table a live controller
		// uses; the oracle mirrors each one into its deadline timeline.
		table := monitor.NewBudgetTable()
		sys.MonECU2.AttachBudget(table)
		for _, sw := range c.Swaps {
			sw := sw
			sys.K.At(sim.Time(sw.At), func() {
				table.Stage([]monitor.DeadlineUpdate{{Segment: sw.Segment, DMon: sim.Duration(sw.DMon)}})
			})
			orc.DeadlineChange(sw.Segment, sim.Time(sw.At), sim.Duration(sw.DMon))
		}
	}
	if err := NewInjector(sim.NewRNG(c.Seed)).Apply(c.Campaign, TargetsOf(sys)); err != nil {
		return nil, fmt.Errorf("apply campaign %q: %w", c.Campaign.Name, err)
	}
	sys.Run()
	return &Run{Sys: sys, Oracle: orc, Report: orc.Check()}, nil
}

// SweepItem is the retained outcome of one combo: the oracle report plus any
// sanity-check or application error. The system itself is discarded on the
// worker, so a thousand-combo sweep does not hold a thousand kernels alive.
type SweepItem struct {
	Combo  Combo
	Report Report
	// Sanity is the campaign's did-the-fault-bite check result (nil when the
	// campaign has none or it passed).
	Sanity error
	// Err is a combo construction/application failure.
	Err error
}

// Ok reports whether the combo ran, its oracle invariants held and its
// sanity check passed.
func (it SweepItem) Ok() bool { return it.Err == nil && it.Sanity == nil && it.Report.Ok() }

// SweepArena is the per-worker reusable state of a sweep: everything a
// combo needs that does not depend on the combo itself. Today that is the
// campaign-name → sanity-check table, which used to be rebuilt by walking
// AllCampaigns() once per combo — O(#campaigns) allocations per cell that
// the arena pays once per worker. Combo-dependent state (kernel, RNG
// streams, telemetry) is intentionally NOT in the arena: rebuilding it from
// the seed is what keeps shards order-independent.
type SweepArena struct {
	sanity map[string]func(*Run) error
}

// NewSweepArena builds the per-worker arena (one map walk of the campaign
// set).
func NewSweepArena() *SweepArena {
	a := &SweepArena{sanity: make(map[string]func(*Run) error)}
	for _, e := range AllCampaigns() {
		if e.Sanity != nil {
			a.sanity[e.Campaign.Name] = e.Sanity
		}
	}
	return a
}

// RunCombo executes one combo reusing the arena's lookup state; see the
// package-level RunCombo for the combo semantics.
func (a *SweepArena) RunCombo(c Combo) SweepItem {
	it := SweepItem{Combo: c}
	run, err := RunCombo(c)
	if err != nil {
		it.Err = err
		return it
	}
	it.Report = run.Report
	if c.Variant == monitor.VariantMonitorThread {
		if sanity := a.sanity[c.Campaign.Name]; sanity != nil {
			it.Sanity = sanity(run)
		}
	}
	return it
}

// RunSweep executes every combo, fanning out over the given worker count
// (≤ 0: GOMAXPROCS), and returns the outcomes in combo order. Sanity checks
// run only for monitor-thread combos, matching the historical matrix tests
// (dds-context runs check the soundness contract alone). Each worker reuses
// one SweepArena across all the combos it claims.
func RunSweep(combos []Combo, workers int) []SweepItem {
	return parallel.MapSliceArena(workers, combos, NewSweepArena,
		func(a *SweepArena, shard int, c Combo) SweepItem {
			return a.RunCombo(c)
		})
}

// MergedSummary renders the sweep outcome as one deterministic text report:
// one block per combo, in combo order. Serial and parallel sweeps of the
// same combo list produce byte-identical output.
func MergedSummary(items []SweepItem) string {
	var b strings.Builder
	for _, it := range items {
		status := "ok"
		if !it.Ok() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "=== %s [%s]\n", it.Combo, status)
		if it.Err != nil {
			fmt.Fprintf(&b, "error: %v\n", it.Err)
			continue
		}
		if it.Sanity != nil {
			fmt.Fprintf(&b, "sanity: %v\n", it.Sanity)
		}
		b.WriteString(it.Report.Summary())
	}
	return b.String()
}

// MatrixEntry pairs a campaign with its sanity check: an assertion that the
// campaign actually bit (faults that do nothing would make the
// zero-false-negative assertion vacuous).
type MatrixEntry struct {
	Campaign Campaign
	Sanity   func(*Run) error
}

func sec(n float64) Duration { return Duration(n * float64(sim.Second)) }

// ChaosCampaigns is the core fault matrix: one campaign per original fault
// type plus a combined one.
func ChaosCampaigns() []MatrixEntry {
	return []MatrixEntry{
		{
			// Correlated loss bursts on the inter-ECU link: the fused
			// remote segment must detect every lost sample.
			Campaign: Campaign{Name: "burst-loss", Faults: []Spec{{
				Type: TypeBurstLoss, From: sec(2), Until: sec(10),
				LinkFrom: "ecu1", LinkTo: "ecu2",
				PEnterBurst: 0.05, PExitBurst: 0.3,
			}}},
			Sanity: func(run *Run) error {
				if s, _ := run.Report.Segment(perception.SegFusedRemote); s.Lost == 0 {
					return fmt.Errorf("burst-loss campaign lost nothing on %s", s.Name)
				}
				return nil
			},
		},
		{
			// A constant latency shift beyond the remote deadline: arrivals
			// stay periodic while every sample is late — the consecutive-miss
			// pattern of §IV-B.
			Campaign: Campaign{Name: "latency-shift", Faults: []Spec{{
				Type: TypeLatencySpike, From: sec(1),
				LinkFrom: "ecu1", LinkTo: "ecu2",
				Delay: Duration(30 * sim.Millisecond),
			}}},
			Sanity: func(run *Run) error {
				if s, _ := run.Report.Segment(perception.SegFusedRemote); s.Exception < 50 {
					return fmt.Errorf("latency-shift: expected ≥50 detections, got %+v", s)
				}
				return nil
			},
		},
		{
			// A mis-ranked grandmaster steps the ECU1 clock by more than the
			// remote deadline: the front/rear remote monitors must fire (the
			// perceived latency includes the clock error), and the oracle's
			// widened slack band must absorb the pessimism.
			Campaign: Campaign{Name: "clock-step", Faults: []Spec{{
				Type: TypeClockStep, From: sec(3), Until: sec(9),
				Clock: "ecu1", Offset: Duration(25 * sim.Millisecond),
			}}},
			Sanity: func(run *Run) error {
				if s, _ := run.Report.Segment(perception.SegFrontRemote); s.Exception == 0 {
					return fmt.Errorf("clock-step: expected detections on %s", s.Name)
				}
				return nil
			},
		},
		{
			// An unmodelled frequency error on the front lidar clock: stays
			// within the widened bands, no verdict may flip.
			Campaign: Campaign{Name: "clock-drift", Faults: []Spec{{
				Type: TypeClockDrift, From: sec(2), Until: sec(10),
				Clock: "front-lidar", DriftPPM: 500,
			}}},
		},
		{
			// Transient ECU2 overload: high-priority interference starves the
			// receive path and the executors; the monitor thread (highest
			// priority) must keep detecting.
			Campaign: Campaign{Name: "overload", Faults: []Spec{{
				Type: TypeOverload, From: sec(4), Until: sec(7),
				ECU: "ecu2", Utilization: 0.9,
			}}},
			Sanity: func(run *Run) error {
				total := 0
				for _, s := range run.Report.Segments {
					total += s.Exception
				}
				if total == 0 {
					return fmt.Errorf("overload campaign caused no detections at all")
				}
				return nil
			},
		},
		{
			// The front lidar blanks out for 1.5 s: the front remote monitor
			// must convert the sequence gap into per-activation exceptions.
			Campaign: Campaign{Name: "sensor-dropout", Faults: []Spec{{
				Type: TypeSensorDropout, From: sec(5), Until: sec(6.5),
				Device: "front-lidar",
			}}},
			Sanity: func(run *Run) error {
				if s, _ := run.Report.Segment(perception.SegFrontRemote); s.Exception < 10 {
					return fmt.Errorf("sensor-dropout: expected ≥10 detections on %s, got %d", s.Name, s.Exception)
				}
				return nil
			},
		},
		{
			// Everything at once, at survivable magnitudes.
			Campaign: Campaign{Name: "kitchen-sink", Faults: []Spec{
				{Type: TypeBurstLoss, From: sec(2), Until: sec(8),
					LinkFrom: "front-lidar", LinkTo: "ecu1",
					PEnterBurst: 0.08, PExitBurst: 0.4},
				{Type: TypeClockStep, From: sec(2), Until: sec(8),
					Clock: "ecu1", Offset: Duration(sim.Millisecond)},
				{Type: TypeLatencySpike, From: sec(3), Until: sec(5),
					LinkFrom: "ecu1", LinkTo: "ecu2",
					Delay: Duration(5 * sim.Millisecond), DelayJitter: Duration(5 * sim.Millisecond)},
				{Type: TypeOverload, From: sec(6), Until: sec(8),
					ECU: "ecu2", Utilization: 0.5},
			}},
			Sanity: func(run *Run) error {
				if s, _ := run.Report.Segment(perception.SegFrontRemote); s.Lost == 0 && s.Exception == 0 {
					return fmt.Errorf("kitchen-sink: front link bursts had no effect")
				}
				return nil
			},
		},
	}
}

// ReorderEntry holds inter-ECU messages 150 ms — longer than the 100 ms
// period, so later fused frames overtake the held one and arrivals leave
// FIFO order. The remote monitor must treat the stale arrival as already
// resolved (its timeout fired first) and the verdicts must stay sound.
func ReorderEntry() MatrixEntry {
	return MatrixEntry{
		Campaign: Campaign{Name: "reorder", Faults: []Spec{{
			Type: TypeReorder, From: Duration(2 * sim.Second), Until: Duration(10 * sim.Second),
			LinkFrom: "ecu1", LinkTo: "ecu2",
			HoldProb: 0.15, Delay: Duration(150 * sim.Millisecond),
		}}},
		Sanity: func(run *Run) error {
			if held := run.Sys.Domain.Link("ecu1", "ecu2").Held(); held == 0 {
				return fmt.Errorf("reorder campaign held no messages")
			}
			if s, _ := run.Report.Segment(perception.SegFusedRemote); s.Exception == 0 {
				return fmt.Errorf("reorder: a 150ms hold beyond the 20ms remote deadline must cause detections on %s", s.Name)
			}
			return nil
		},
	}
}

// DuplicateEntry delivers ~20% of inter-ECU messages twice, the copy 5 ms
// after the original. The first copy resolves the activation; the second
// must be discarded without perturbing any verdict.
func DuplicateEntry() MatrixEntry {
	return MatrixEntry{
		Campaign: Campaign{Name: "duplicate", Faults: []Spec{{
			Type: TypeDuplicate, From: Duration(2 * sim.Second), Until: Duration(10 * sim.Second),
			LinkFrom: "ecu1", LinkTo: "ecu2",
			DupProb: 0.2, Delay: Duration(5 * sim.Millisecond),
		}}},
		Sanity: func(run *Run) error {
			if dup := run.Sys.Domain.Link("ecu1", "ecu2").Duplicated(); dup == 0 {
				return fmt.Errorf("duplicate campaign duplicated no messages")
			}
			return nil
		},
	}
}

// PTPAsymEntry steps the ECU1 clock back and the ECU2 clock forward by 12 ms
// each: the per-clock error stays within the oracle band, but timestamps
// crossing the inter-ECU link look 24 ms late — beyond the 20 ms remote
// deadline, so the fused remote monitor must fire throughout the window
// while the lidar→ECU1 segments (which look early) stay quiet.
func PTPAsymEntry() MatrixEntry {
	return MatrixEntry{
		Campaign: Campaign{Name: "ptp-asym", Faults: []Spec{{
			Type: TypePTPAsym, From: sec(3), Until: sec(9),
			Clock: "ecu1", ClockPeer: "ecu2",
			Offset: Duration(-12 * sim.Millisecond),
		}}},
		Sanity: func(run *Run) error {
			if s, _ := run.Report.Segment(perception.SegFusedRemote); s.Exception < 10 {
				return fmt.Errorf("ptp-asym: a 24ms relative clock error must trip the fused remote monitor, got %+v", s)
			}
			return nil
		},
	}
}

// ExecutorStarvationEntry suspends the detection node's executor thread for
// 2.5 s: non-ground clouds pile up unprocessed while the rest of ECU2 stays
// schedulable, so the objects segment must miss its local deadline frame
// after frame even though the processor shows no overload (the failure mode
// a utilization watchdog cannot see).
func ExecutorStarvationEntry() MatrixEntry {
	return MatrixEntry{
		Campaign: Campaign{Name: "executor-starvation", Faults: []Spec{{
			Type: TypeExecutorStarvation, From: sec(4), Until: sec(6.5),
			Node: "detection",
		}}},
		Sanity: func(run *Run) error {
			if s, _ := run.Report.Segment(perception.SegObjectsLocal); s.Exception < 10 {
				return fmt.Errorf("executor-starvation: a 2.5s executor stall must miss ≥10 local deadlines on %s, got %d", s.Name, s.Exception)
			}
			return nil
		},
	}
}

// GMFailoverEntry injects a grandmaster failover on the ECU1 clock: a 25 ms
// step at 3 s, slewed back into sync by 9 s. The lidar→fusion remote
// monitors must fire while the error exceeds the 20 ms remote deadline and
// fall silent as the servo re-converges; the oracle's step-derived band
// must absorb the whole transient.
func GMFailoverEntry() MatrixEntry {
	return MatrixEntry{
		Campaign: Campaign{Name: "gm-failover", Faults: []Spec{{
			Type: TypeGMFailover, From: sec(3), Until: sec(9),
			Clock: "ecu1", Offset: Duration(25 * sim.Millisecond),
		}}},
		Sanity: func(run *Run) error {
			if s, _ := run.Report.Segment(perception.SegFrontRemote); s.Exception == 0 {
				return fmt.Errorf("gm-failover: a 25ms step must trip %s before the servo re-converges", s.Name)
			}
			return nil
		},
	}
}

// AllCampaigns is the full campaign set: the core matrix plus reorder,
// duplicate, the asymmetric PTP offset, the executor stall and the
// grandmaster failover.
func AllCampaigns() []MatrixEntry {
	entries := ChaosCampaigns()
	return append(entries, ReorderEntry(), DuplicateEntry(), PTPAsymEntry(),
		ExecutorStarvationEntry(), GMFailoverEntry())
}

// cross builds the campaign-major combo grid, pre-sized to its exact length.
func cross(entries []MatrixEntry, seeds []int64, v monitor.RemoteVariant) []Combo {
	combos := make([]Combo, 0, len(entries)*len(seeds))
	for _, e := range entries {
		for _, seed := range seeds {
			combos = append(combos, Combo{Campaign: e.Campaign, Seed: seed, Variant: v})
		}
	}
	return combos
}

// seedSeq returns n seeds 11, 22, 33, … matching the historical matrices.
func seedSeq(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(11 * (i + 1))
	}
	return seeds
}

// Matrix102 is the historical nightly matrix: the nine pre-PTP campaigns ×
// eleven seeds plus three dds-context runs — 102 combos. It is kept stable
// as the reference workload of the parallel-speedup benchmark
// (BENCH_parallel.json compares serial vs parallel wall time on exactly
// this list).
func Matrix102() []Combo {
	entries := append(ChaosCampaigns(), ReorderEntry(), DuplicateEntry())
	combos := cross(entries, seedSeq(11), monitor.VariantMonitorThread)
	for _, e := range []MatrixEntry{ReorderEntry(), DuplicateEntry(), ChaosCampaigns()[0]} {
		combos = append(combos, Combo{Campaign: e.Campaign, Seed: 11, Variant: monitor.VariantDDSContext})
	}
	return combos
}

// PRMatrix is the 23-combo matrix of the PR test job: the seven core
// campaigns × three seeds plus the two dds-context-safe campaigns under
// dds-context.
func PRMatrix() []Combo {
	combos := cross(ChaosCampaigns(), seedSeq(3), monitor.VariantMonitorThread)
	for _, e := range ChaosCampaigns()[:2] { // burst-loss, latency-shift
		combos = append(combos, Combo{Campaign: e.Campaign, Seed: 11, Variant: monitor.VariantDDSContext})
	}
	return combos
}

// Matrix10K is the 10000-combo nightly sweep the zero-alloc hot path makes
// affordable: all twelve campaigns × 830 seeds (9960 monitor-thread combos)
// plus the four dds-context-safe campaigns × ten seeds. At ~8 ms per combo
// it stays within a nightly CI budget even under -race.
func Matrix10K() []Combo {
	combos := cross(AllCampaigns(), seedSeq(830), monitor.VariantMonitorThread)
	ddsSafe := []MatrixEntry{ReorderEntry(), DuplicateEntry(), ChaosCampaigns()[0], ChaosCampaigns()[1]}
	for _, seed := range seedSeq(10) {
		for _, e := range ddsSafe {
			combos = append(combos, Combo{Campaign: e.Campaign, Seed: seed, Variant: monitor.VariantDDSContext})
		}
	}
	return combos
}
