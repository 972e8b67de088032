package realtime

import (
	"fmt"
	"testing"
	"time"

	"chainmon/internal/dds"
	"chainmon/internal/monitor"
	"chainmon/internal/sim"
	"chainmon/internal/vclock"
	"chainmon/internal/weaklyhard"
)

// TestCrossTimebaseEquivalence is the acceptance test of the runtime
// extraction: the exact same frame schedule — started, worked and stalled at
// the same relative instants — must yield the same per-segment verdict
// sequence whether the monitor core runs on virtual time (sim.Kernel) or on
// the wall clock (walltime.Loop). The deadlines are generous enough (20 ms
// against 2 ms of work, late ends a full 10 ms past the deadline) that real
// scheduling jitter cannot flip a verdict, so any divergence is a logic
// difference between the timebases — which the shared Core makes impossible
// by construction.
func TestCrossTimebaseEquivalence(t *testing.T) {
	cfg := testConfig()

	_, wall, err := runObserved(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareTimebases(t, wall, simReplica(cfg))
}

// TestCrossTimebaseEquivalenceWithActuations extends the equivalence across
// two mid-run deadline actuations staged through the hot-swappable budget
// table. Frame 3 grows the ground deadline to 26 ms — its stalled end still
// arrives a full period after the start, so the verdict stays missed (the
// grow is one-sidedly robust against jitter). Frame 5 shrinks it to 1 ms,
// below the 2 ms work, so frames 5 and 6 miss and the stalled frame 7
// misses too. The swap barrier keeps every verdict decided by the deadline
// the activation was armed with, on both timebases.
func TestCrossTimebaseEquivalenceWithActuations(t *testing.T) {
	cfg := testConfig()
	cfg.Swaps = []Swap{
		{Frame: 3, Segment: SegGround, DMon: 26 * time.Millisecond},
		{Frame: 5, Segment: SegGround, DMon: time.Millisecond},
	}

	_, wall, err := runObserved(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	virt := simReplica(cfg)
	compareTimebases(t, wall, virt)

	want := "0:ok 1:ok 2:ok 3:missed 4:ok 5:missed 6:missed 7:missed "
	for _, segs := range [][]observedSegment{wall, virt} {
		if got := verdictTrace(segs[1].Resolutions); got != want {
			t.Errorf("%s verdicts %q, want %q", segs[1].Name, got, want)
		}
		if got := verdictTrace(segs[0].Resolutions); got != "0:ok 1:ok 2:ok 3:ok 4:ok 5:ok 6:ok 7:ok " {
			t.Errorf("%s verdicts %q, want all ok (actuations target ground only)", segs[0].Name, got)
		}
	}
}

func compareTimebases(t *testing.T, wall, virt []observedSegment) {
	t.Helper()
	if len(wall) != len(virt) {
		t.Fatalf("segment count: wall %d vs sim %d", len(wall), len(virt))
	}
	for i := range virt {
		w, v := wall[i], virt[i]
		if w.Name != v.Name {
			t.Fatalf("segment %d: name %q vs %q", i, w.Name, v.Name)
		}
		if w.OK != v.OK || w.Missed != v.Missed || w.Recovered != v.Recovered {
			t.Errorf("%s: wall ok/missed/recovered = %d/%d/%d, sim = %d/%d/%d",
				w.Name, w.OK, w.Missed, w.Recovered, v.OK, v.Missed, v.Recovered)
		}
		if got, want := verdictTrace(w.Resolutions), verdictTrace(v.Resolutions); got != want {
			t.Errorf("%s verdict sequence diverges:\n  wall: %s\n  sim:  %s", w.Name, got, want)
		}
	}
}

// verdictTrace flattens a resolution list to its timebase-independent part:
// the in-order (activation, status) sequence. Timestamps and latencies are
// clock-specific and excluded on purpose.
func verdictTrace(rs []monitor.Resolution) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%d:%v ", r.Activation, r.Status)
	}
	return s
}

// simReplica replays Run's producer schedule on the virtual-time runtime:
// same segment parameters, same start/end/stall instants, injected events
// instead of goroutine sleeps. All modeled costs are zeroed so the event
// times match the wall-clock schedule exactly.
func simReplica(cfg Config) []observedSegment {
	k := sim.NewKernel()
	d := dds.NewDomain(k, sim.NewRNG(cfg.Seed))
	d.KsoftirqCost = sim.Constant(0)
	d.DeliverCost = sim.Constant(0)
	ecu := d.NewECU("ecu", 2, vclock.Config{})
	ecu.Proc.CtxSwitch = sim.Constant(0)
	ecu.Proc.Wakeup = sim.Constant(0)

	mon := monitor.NewLocalMonitor(ecu)
	mon.PostCost = sim.Constant(0)
	mon.ScanCost = sim.Constant(0)
	var budget *monitor.BudgetTable
	if len(cfg.Swaps) > 0 {
		budget = monitor.NewBudgetTable()
		mon.AttachBudget(budget)
	}

	results := make([]observedSegment, 0, 2)
	segs := make([]*monitor.LocalSegment, 0, 2)
	for _, name := range []string{SegObjects, SegGround} {
		seg := mon.AddSegment(monitor.SegmentConfig{
			Name: name, DMon: sim.Duration(cfg.Deadline), DEx: sim.Millisecond,
			Period: sim.Duration(cfg.Period), Constraint: weaklyhard.Constraint{M: 1, K: 5},
		})
		results = append(results, observedSegment{SegmentResult: SegmentResult{Name: name}})
		idx := len(results) - 1
		seg.OnResolve(func(r monitor.Resolution) {
			switch r.Status {
			case monitor.StatusOK:
				results[idx].OK++
			case monitor.StatusMissed:
				results[idx].Missed++
			case monitor.StatusRecovered:
				results[idx].Recovered++
			}
			results[idx].Resolutions = append(results[idx].Resolutions, r)
		})
		segs = append(segs, seg)
	}
	objects, ground := segs[0], segs[1]

	for act := 0; act < cfg.Frames; act++ {
		a := uint64(act)
		at := sim.Time(act) * sim.Time(cfg.Period)
		ups := cfg.swapsFor(act)
		k.At(at, func() {
			if ups != nil {
				// Same ordering contract as Run's producer: staged before
				// this frame's starts are posted.
				budget.Stage(ups)
			}
			objects.StartInjected(a)
			ground.StartInjected(a)
		})
		end := at + sim.Time(cfg.Work)
		k.At(end, func() { objects.EndInjected(a) })
		if cfg.LateEvery > 0 && act%cfg.LateEvery == cfg.LateEvery-1 {
			// Stalled: the end arrives one period after the start, well past
			// the deadline — exactly when Run's producer releases it.
			k.At(at+sim.Time(cfg.Period), func() { ground.EndInjected(a) })
		} else {
			k.At(end, func() { ground.EndInjected(a) })
		}
	}
	k.Run()
	return results
}
