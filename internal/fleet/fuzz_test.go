package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"chainmon/internal/perception"
	"chainmon/internal/scenario"
	"chainmon/internal/sim"
)

// inBounds checks a jitter multiplier against its declared spec fraction.
// The bound is [1−j, 1+j) up to floating-point rounding: for sub-ulp j the
// addition 1 + u can round one ulp past 1+j (fuzz-found with j ≈ 5.8e-15),
// so a few ulps of 1.0 are tolerated on either side.
func inBounds(scale, j float64) bool {
	const tol = 1e-15
	return scale >= 1-j-tol && scale <= 1+j+tol
}

// FuzzFleetJitter fuzzes the seed-split jitter derivation: for arbitrary
// fleet seeds, vehicle indices and jitter fractions, every multiplier must
// stay inside its declared [1−j, 1+j) bound, the derivation must be pure
// (same inputs → same params), and the jittered vehicle configuration must
// survive the strict scenario parser round trip — i.e. every fleet vehicle
// is expressible as a valid standalone scenario.
func FuzzFleetJitter(f *testing.F) {
	f.Add(int64(1), 0, 0.1)
	f.Add(int64(7), 3, 0.25)
	f.Add(int64(-99), 1000, 0.0)
	f.Add(int64(1<<62), 123456, 0.9)
	f.Fuzz(func(t *testing.T, fleetSeed int64, vehicle int, jitter float64) {
		if vehicle < 0 {
			vehicle = -(vehicle + 1)
		}
		if math.IsNaN(jitter) || math.IsInf(jitter, 0) {
			jitter = 0
		}
		jitter = math.Abs(math.Mod(jitter, 0.999))
		spec := Uniform(jitter)
		if err := spec.Validate(); err != nil {
			t.Fatalf("clamped spec invalid: %v", err)
		}

		p := DeriveParams(fleetSeed, vehicle, spec)
		if p2 := DeriveParams(fleetSeed, vehicle, spec); p != p2 {
			t.Fatalf("derivation not pure: %+v vs %+v", p, p2)
		}
		for _, s := range []struct {
			name  string
			scale float64
		}{
			{"clock", p.ClockEps}, {"bcrt", p.LinkBCRT}, {"link", p.LinkJitter},
			{"period", p.Period}, {"load", p.Load}, {"loss", p.Loss},
		} {
			if !inBounds(s.scale, jitter) {
				t.Fatalf("%s scale %g outside [1-%g, 1+%g)", s.name, s.scale, jitter, jitter)
			}
		}

		base := perception.DefaultConfig()
		cfg := p.Apply(base)
		if cfg.Period <= 0 || cfg.ClockEpsilon < 0 || cfg.Network.BCRT < 0 {
			t.Fatalf("jittered config degenerate: period=%v eps=%v bcrt=%v",
				cfg.Period, cfg.ClockEpsilon, cfg.Network.BCRT)
		}
		if cfg.Network.LossProb < 0 || cfg.Network.LossProb > 1 {
			t.Fatalf("jittered loss probability %g outside [0,1]", cfg.Network.LossProb)
		}
		if cfg.Seed == 0 {
			// scenario.Apply treats seed 0 as "keep default"; the round
			// trip below cannot represent it. Astronomically rare.
			t.Skip("vehicle seed hashed to zero")
		}

		// Round-trip the jittered vehicle through the strict scenario
		// parser: marshal the expressible fields, re-load, compare.
		file := scenario.File{
			Seed:           cfg.Seed,
			Frames:         cfg.Frames,
			Period:         scenario.Duration(cfg.Period),
			LocalDeadline:  scenario.Duration(cfg.LocalDeadline),
			RemoteDeadline: scenario.Duration(cfg.RemoteDeadline),
			LossProb:       cfg.Network.LossProb,
			ClockEpsilon:   scenario.Duration(cfg.ClockEpsilon),
		}
		enc, err := json.Marshal(file)
		if err != nil {
			t.Fatalf("marshal jittered scenario: %v", err)
		}
		parsed, _, err := scenario.LoadFull(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("jittered scenario rejected by strict parser: %v\n%s", err, enc)
		}
		if parsed.Seed != cfg.Seed || parsed.Frames != cfg.Frames ||
			parsed.Period != cfg.Period || parsed.ClockEpsilon != cfg.ClockEpsilon {
			t.Fatalf("scenario round trip drifted: got seed=%d frames=%d period=%v eps=%v, want %d/%d/%v/%v",
				parsed.Seed, parsed.Frames, parsed.Period, parsed.ClockEpsilon,
				cfg.Seed, cfg.Frames, cfg.Period, cfg.ClockEpsilon)
		}
		if math.Abs(parsed.Network.LossProb-cfg.Network.LossProb) > 1e-15 {
			t.Fatalf("loss probability drifted: %g vs %g", parsed.Network.LossProb, cfg.Network.LossProb)
		}
	})
}

// TestScaleDistShapes pins the distribution scaling used by the link
// jitter knob: location parameters scale, shapes survive, and the sampled
// values of a scaled distribution respect the scaled truncation.
func TestScaleDistShapes(t *testing.T) {
	ln := sim.LogNormalDist{Median: 200 * sim.Microsecond, Sigma: 0.8, Max: 20 * sim.Millisecond}
	got := ScaleDist(ln, 1.5).(sim.LogNormalDist)
	if got.Median != 300*sim.Microsecond || got.Sigma != 0.8 || got.Max != 30*sim.Millisecond {
		t.Fatalf("lognormal scaled wrong: %+v", got)
	}
	u := ScaleDist(sim.UniformDist{Lo: 10, Hi: 20}, 2).(sim.UniformDist)
	if u.Lo != 20 || u.Hi != 40 {
		t.Fatalf("uniform scaled wrong: %+v", u)
	}
	c := ScaleDist(sim.Constant(100), 0.5).(sim.Constant)
	if sim.Duration(c) != 50 {
		t.Fatalf("constant scaled wrong: %v", c)
	}
	rng := sim.NewRNG(1)
	scaled := ScaleDist(ln, 0.5)
	for i := 0; i < 1000; i++ {
		if v := scaled.Sample(rng); v > 10*sim.Millisecond {
			t.Fatalf("scaled truncation violated: sample %v", v)
		}
	}
}

// TestScaleCostsProportional pins the load knob the saturation analyzer
// turns: every cost coefficient scales linearly, σ stays.
func TestScaleCostsProportional(t *testing.T) {
	base := perception.DefaultConfig().Costs
	c := ScaleCosts(base, 2)
	if c.ClassifyPerPoint != 2*base.ClassifyPerPoint || c.RenderPerPoint != 2*base.RenderPerPoint ||
		c.BaseCost != 2*base.BaseCost || c.JitterSigma != base.JitterSigma {
		t.Fatalf("cost scaling wrong: %+v", c)
	}
	if d := time.Duration(c.PlanPerObject); d != 2*time.Duration(base.PlanPerObject) {
		t.Fatalf("plan cost scaling wrong: %v", d)
	}
}
