package perception_test

import (
	"testing"

	"chainmon/internal/faultinject"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
)

// TestFusionBookkeepingBounded runs the fusion join for three horizons under
// loss on both lidar links, a sensor dropout and late duplicates, which
// leave partner-less frames and post-fusion duplicates in its maps. Sampled
// every simulated second, no key of the three maps is ever a horizon behind
// the newest activation, and the fused-frame map stays below one horizon.
func TestFusionBookkeepingBounded(t *testing.T) {
	cfg := perception.DefaultConfig()
	cfg.Frames = 3 * perception.FusionHorizon
	sys := perception.Build(cfg)
	all := func(s faultinject.Spec) faultinject.Spec {
		s.From, s.Until = 0, faultinject.Duration(sim.Duration(cfg.Frames+10)*cfg.Period)
		return s
	}
	camp := faultinject.Campaign{Name: "lossy-duplicating", Faults: []faultinject.Spec{
		all(faultinject.Spec{Type: faultinject.TypeBurstLoss, LinkFrom: "front-lidar", LinkTo: "ecu1",
			PEnterBurst: 0.05, PExitBurst: 0.3}),
		all(faultinject.Spec{Type: faultinject.TypeBurstLoss, LinkFrom: "rear-lidar", LinkTo: "ecu1",
			PEnterBurst: 0.05, PExitBurst: 0.3}),
		all(faultinject.Spec{Type: faultinject.TypeSensorDropout, Device: "rear-lidar", DropProb: 0.02}),
		all(faultinject.Spec{Type: faultinject.TypeDuplicate, LinkFrom: "front-lidar", LinkTo: "ecu1",
			DupProb: 0.2, Delay: faultinject.Duration(150 * sim.Millisecond)}),
		all(faultinject.Spec{Type: faultinject.TypeDuplicate, LinkFrom: "rear-lidar", LinkTo: "ecu1",
			DupProb: 0.2, Delay: faultinject.Duration(5 * sim.Millisecond),
			DelayJitter: faultinject.Duration(300 * sim.Millisecond)}),
	}}
	if err := faultinject.NewInjector(sim.NewRNG(cfg.Seed)).Apply(camp, faultinject.TargetsOf(sys)); err != nil {
		t.Fatal(err)
	}
	end := sim.Time(cfg.Frames) * sim.Time(cfg.Period)
	var checks, maxDone, leftovers int
	var check func()
	check = func() {
		// Every arrival so far is below pruneAt, so a key within the
		// horizon of pruneAt is within the horizon of the newest arrival.
		pruneAt, oldest, sizes := sys.FusionBacklog()
		if pruneAt-oldest > perception.FusionHorizon {
			t.Fatalf("at %v: key %d is more than a horizon (%d) below the next prune at %d",
				sys.K.Now(), oldest, perception.FusionHorizon, pruneAt)
		}
		if sizes[2] >= perception.FusionHorizon {
			t.Fatalf("at %v: %d fused-frame markers, want fewer than %d", sys.K.Now(), sizes[2], perception.FusionHorizon)
		}
		checks++
		maxDone = max(maxDone, sizes[2])
		leftovers = max(leftovers, sizes[0]+sizes[1])
		if sys.K.Now() < end {
			sys.K.After(sim.Second, check) // the kernel must still run dry
		}
	}
	sys.K.After(sim.Second, check)
	sys.Run()
	pruneAt, _, _ := sys.FusionBacklog()
	t.Logf("%d checks, next prune at %d, at most %d fused markers and %d unpaired frames held",
		checks, pruneAt, maxDone, leftovers)
	if pruneAt < 2*perception.FusionHorizon || checks < cfg.Frames/10 {
		t.Fatalf("next prune at %d after %d checks; want several horizons checked every second", pruneAt, checks)
	}
	if leftovers < 50 {
		t.Errorf("at most %d unpaired frames held at once; the campaign should leave more behind", leftovers)
	}
}
