package faultinject

import (
	"testing"

	"chainmon/internal/monitor"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
)

func TestMatrixSizes(t *testing.T) {
	if n := len(Matrix102()); n != 102 {
		t.Errorf("Matrix102 has %d combos", n)
	}
	if n := len(PRMatrix()); n != 23 {
		t.Errorf("PRMatrix has %d combos", n)
	}
	if n := len(Matrix10K()); n != 10000 {
		t.Errorf("Matrix10K has %d combos", n)
	}
	for _, c := range Matrix10K() {
		if err := c.Campaign.Validate(); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
}

// TestSweepParallelDeterminism is the tentpole guarantee: running the PR
// chaos matrix through the sharded engine at four workers produces output
// byte-identical to the serial run — same merged report text, same oracle
// verdicts, same sanity outcomes, regardless of worker interleaving. The PR
// CI job runs this under -race, so it also proves no state is shared
// between shards.
func TestSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism runs the PR matrix twice")
	}
	combos := PRMatrix()
	serial := RunSweep(combos, 1)
	par := RunSweep(combos, 4)

	if a, b := MergedSummary(serial), MergedSummary(par); a != b {
		t.Fatalf("parallel merged report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	for i := range serial {
		if serial[i].Ok() != par[i].Ok() {
			t.Errorf("%s: serial ok=%v, parallel ok=%v", serial[i].Combo, serial[i].Ok(), par[i].Ok())
		}
	}
	// The PR matrix itself must be green, otherwise the identity above
	// could be two identically-broken runs.
	for _, it := range serial {
		if !it.Ok() {
			t.Errorf("%s failed: err=%v sanity=%v\n%s", it.Combo, it.Err, it.Sanity, it.Report.Summary())
		}
	}
}

// TestRemoteVerdictsConsecutive pins why a remote monitor needs no reorder
// buffer: each verdict is for the activation it expects, and the
// expectation then advances by one. So every remote monitor, and every
// per-writer monitor of a keyed one on the classifier's subscription,
// resolves consecutive activations in order under each PR campaign and both
// variants.
func TestRemoteVerdictsConsecutive(t *testing.T) {
	for _, c := range PRMatrix() {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			cfg := perception.DefaultConfig()
			cfg.Seed = c.Seed
			cfg.Frames = chaosFrames
			cfg.FullChain = true
			cfg.RemoteVariant = c.Variant
			sys := perception.Build(cfg)
			km := monitor.NewKeyedRemoteMonitor(sys.ClassifierSub, monitor.SegmentConfig{
				Name: "keyed", DMon: cfg.RemoteDeadline, Period: cfg.Period,
			}, c.Variant, sys.MonECU2, nil)
			sys.K.At((sim.Time(cfg.Frames) * sim.Time(cfg.Period)).Add(5*sim.Second), km.Stop)
			if err := NewInjector(sim.NewRNG(c.Seed)).Apply(c.Campaign, TargetsOf(sys)); err != nil {
				t.Fatal(err)
			}
			sys.Run()
			mons := []*monitor.RemoteMonitor{sys.RemFront, sys.RemRear, sys.RemFused}
			for _, w := range km.Writers() {
				mons = append(mons, km.Monitor(w))
			}
			if len(mons) < 4 {
				t.Fatal("the keyed monitor saw no writer")
			}
			for _, m := range mons {
				rs := m.Stats().Resolutions()
				if len(rs) == 0 {
					t.Fatalf("%s resolved nothing", m.Config().Name)
				}
				for i, r := range rs {
					if want := rs[0].Activation + uint64(i); r.Activation != want {
						t.Fatalf("%s: verdict %d is for activation %d, want %d", m.Config().Name, i, r.Activation, want)
					}
				}
			}
		})
	}
}
