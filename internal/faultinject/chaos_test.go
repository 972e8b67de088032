package faultinject

import (
	"fmt"
	"testing"

	"chainmon/internal/monitor"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
)

// runCampaign is the test-side wrapper of RunCombo: build a full-chain
// perception system, inject the campaign, wire the ground-truth oracle and
// run to completion.
func runCampaign(t *testing.T, seed int64, camp Campaign, variant monitor.RemoteVariant) *Run {
	t.Helper()
	run, err := RunCombo(Combo{Campaign: camp, Seed: seed, Variant: variant})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func segReport(t *testing.T, r Report, name string) SegmentReport {
	t.Helper()
	s, ok := r.Segment(name)
	if !ok {
		t.Fatalf("no segment report %q", name)
	}
	return s
}

func segTruth(t *testing.T, o *Oracle, name string) *SegmentTruth {
	t.Helper()
	for _, st := range o.Segments() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("no segment truth %q", name)
	return nil
}

func checkSanity(t *testing.T, e MatrixEntry, run *Run) {
	t.Helper()
	if e.Sanity == nil {
		return
	}
	if err := e.Sanity(run); err != nil {
		t.Error(err)
	}
}

// TestChaosMatrix sweeps seeds × campaigns with the monitor-thread variant
// and asserts the oracle invariants hold in every combination: zero false
// negatives, only band-limited false positives, every lost sample detected.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	seeds := []int64{11, 22, 33}
	for _, e := range ChaosCampaigns() {
		for _, seed := range seeds {
			e, seed := e, seed
			t.Run(fmt.Sprintf("%s/seed%d", e.Campaign.Name, seed), func(t *testing.T) {
				t.Parallel()
				run := runCampaign(t, seed, e.Campaign, monitor.VariantMonitorThread)
				if !run.Report.Ok() {
					t.Errorf("oracle invariants violated:\n%s", run.Report.Summary())
				}
				checkSanity(t, e, run)
			})
		}
	}
}

// chaosSwaps is the actuation schedule of the epoch-boundary matrix: the
// objects deadline is halved mid-run and restored near the end, the ground
// deadline tightened once. The instants sit off the 100 ms frame grid so
// epoch boundaries land between a start and its drain as often as possible.
func chaosSwaps() []BudgetSwap {
	return []BudgetSwap{
		{At: Duration(3550 * sim.Millisecond), Segment: perception.SegObjectsLocal, DMon: 50 * Duration(sim.Millisecond)},
		{At: Duration(5050 * sim.Millisecond), Segment: perception.SegGroundLocal, DMon: 70 * Duration(sim.Millisecond)},
		{At: Duration(8550 * sim.Millisecond), Segment: perception.SegObjectsLocal, DMon: 100 * Duration(sim.Millisecond)},
	}
}

// TestChaosMatrixWithActuations re-runs the PR matrix (the 23-combo grid of
// the CI job) with mid-run deadline actuations staged through the budget
// table on every combo. The oracle knows the actuation timeline, so the
// zero-false-negative contract is asserted ACROSS the epoch boundaries: an
// activation judged under the tightened deadline must raise an exception
// whenever its true latency exceeds it, and the swap barrier must keep
// in-flight activations on their armed deadline (else the interval checks
// flag a false positive). The halved objects deadline is chosen to bite —
// nominal objects latencies routinely exceed 50 ms — so the assertion is
// not vacuous, which the TrueLate floor pins.
func TestChaosMatrixWithActuations(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	trueLate := 0
	for _, combo := range PRMatrix() {
		combo := combo
		combo.Swaps = chaosSwaps()
		t.Run(combo.String(), func(t *testing.T) {
			run, err := RunCombo(combo)
			if err != nil {
				t.Fatal(err)
			}
			if !run.Report.Ok() {
				t.Errorf("oracle invariants violated across epoch boundaries:\n%s", run.Report.Summary())
			}
			s := segReport(t, run.Report, perception.SegObjectsLocal)
			trueLate += s.TrueLate
		})
	}
	// Whether a combo's objects latencies exceed the halved deadline depends
	// on its campaign and seed, so the floor is matrix-wide.
	if trueLate < 50 {
		t.Errorf("tightened objects deadline rarely bit (TrueLate=%d across the matrix); the FN assertion is near-vacuous", trueLate)
	}
}

// TestChaosDDSContext runs the campaigns that leave the middleware thread
// schedulable under the dds-context variant: without interference the
// delayed timeout entry stays bounded and the soundness contract holds.
func TestChaosDDSContext(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	for _, e := range ChaosCampaigns() {
		if e.Campaign.Name != "burst-loss" && e.Campaign.Name != "latency-shift" {
			continue
		}
		e := e
		t.Run(e.Campaign.Name, func(t *testing.T) {
			t.Parallel()
			run := runCampaign(t, 11, e.Campaign, monitor.VariantDDSContext)
			if !run.Report.Ok() {
				t.Errorf("oracle invariants violated:\n%s", run.Report.Summary())
			}
			checkSanity(t, e, run)
		})
	}
}

// TestOracleCleanRun pins the oracle against a fault-free run: the nominal
// jitter and the baseline i.i.d. link loss must not trip any invariant
// (losses still occur and must still be detected).
func TestOracleCleanRun(t *testing.T) {
	run := runCampaign(t, 5, Campaign{Name: "none"}, monitor.VariantMonitorThread)
	if !run.Report.Ok() {
		t.Errorf("oracle invariants violated on a fault-free run:\n%s", run.Report.Summary())
	}
	checked := 0
	for _, s := range run.Report.Segments {
		checked += s.Checked
	}
	if checked < 5*chaosFrames {
		t.Errorf("oracle checked only %d activations across %d segments", checked, len(run.Report.Segments))
	}
}

// interArrivalTMax is the supervision bound of the baseline inter-arrival
// monitor: period plus enough headroom that the nominal activation and link
// jitter never trips it (the paper's t_max dilemma — any tighter bound
// false-positives on jitter).
const interArrivalTMax = 135 * sim.Millisecond

// TestInterArrivalBlindSpot demonstrates the §IV-B argument: under a
// constant latency shift every sample misses its deadline, but arrivals
// stay one period apart, so the inter-arrival supervisor sees (almost)
// nothing while the synchronization-based monitor detects every miss.
func TestInterArrivalBlindSpot(t *testing.T) {
	camp := Campaign{Name: "latency-shift", Faults: []Spec{{
		Type: TypeLatencySpike, From: Duration(sim.Second),
		LinkFrom: "ecu1", LinkTo: "ecu2",
		Delay: Duration(30 * sim.Millisecond),
	}}}
	// RunCombo's system, with the inter-arrival supervisor watching the
	// fused cloud's reception beside the remote monitor.
	cfg := perception.DefaultConfig()
	cfg.Seed = 7
	cfg.Frames = chaosFrames
	cfg.FullChain = true
	sys := perception.Build(cfg)
	iam := monitor.NewInterArrivalMonitor(sys.ClassifierSub, interArrivalTMax)
	sys.K.At((sim.Time(cfg.Frames) * sim.Time(cfg.Period)).Add(5*sim.Second), iam.Stop)
	orc := ForPerception(sys, camp)
	if err := NewInjector(sim.NewRNG(cfg.Seed)).Apply(camp, TargetsOf(sys)); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	rep := orc.Check()
	if !rep.Ok() {
		t.Errorf("oracle invariants violated:\n%s", rep.Summary())
	}

	fused := segTruth(t, orc, perception.SegFusedRemote)
	audit := AuditInterArrival(fused, iam, sim.Time(2*sim.Second), sim.Time(12*sim.Second))
	if audit.TrueViolations < 50 {
		t.Fatalf("latency shift produced only %d true violations", audit.TrueViolations)
	}
	if audit.Detections > 1 {
		t.Errorf("inter-arrival supervisor detected %d of %d consecutive misses; expected ~0 (blind spot)",
			audit.Detections, audit.TrueViolations)
	}
	// The synchronization-based monitor, by contrast, flagged them all
	// (guaranteed by the oracle's false-negative check above).
	s := segReport(t, rep, perception.SegFusedRemote)
	if s.TrueLate < 50 {
		t.Errorf("expected ≥50 contract-late activations, got %+v", s)
	}
	if s.Exception < audit.TrueViolations {
		t.Errorf("remote monitor detected %d < %d true violations", s.Exception, audit.TrueViolations)
	}
}
