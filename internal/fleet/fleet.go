// Package fleet scales the single-vehicle perception simulation to a
// population: N independent vehicle sims are instantiated from one base
// scenario, each parameter-jittered by a seeded RNG (clock quality, link
// BCRT and jitter, executor load, frame period, loss), sharded across the
// work-stealing pool of internal/parallel and merged in vehicle order — a
// parallel fleet run produces output byte-identical to a serial one.
//
// Vehicle randomness uses seed splitting, not a shared RNG stream: the seed
// of vehicle i is a pure hash of (fleet seed, i), so growing the fleet from
// N to N+1 vehicles never perturbs vehicles 0..N−1 and any vehicle can be
// re-simulated in isolation from its index alone.
//
// On top of the per-vehicle runs the package aggregates fleet-level
// results: fleet-wide and per-vehicle deadline-miss rates (p50/p95/p99/max
// via internal/stats), per-fault-class breakdowns reusing the
// internal/faultinject campaigns, Prometheus rollups through
// internal/telemetry, and a saturation analyzer that binary-searches the
// load multiplier at which the monitored fleet starts missing deadlines.
package fleet

import (
	"fmt"

	"chainmon/internal/blame"
	"chainmon/internal/faultinject"
	"chainmon/internal/lidar"
	"chainmon/internal/monitor"
	"chainmon/internal/netsim"
	"chainmon/internal/online"
	"chainmon/internal/parallel"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
)

// JitterSpec declares the relative jitter bound of every per-vehicle
// parameter: a field value j scales the base parameter by a factor drawn
// uniformly from [1−j, 1+j). All fields must lie in [0, 1) so every scale
// stays positive; Uniform(j) sets them all to the same fraction (the
// -fleet-jitter flag).
type JitterSpec struct {
	// ClockEpsilon jitters the clock synchronization error bound ε
	// (clock quality varies across the fleet's PTP hardware).
	ClockEpsilon float64 `json:"clock_epsilon"`
	// LinkBCRT jitters the inter-ECU link's best-case response time.
	LinkBCRT float64 `json:"link_bcrt"`
	// LinkJitter jitters the link's response-time jitter distribution
	// (median, shift and truncation scale together; the shape is kept).
	LinkJitter float64 `json:"link_jitter"`
	// Period jitters the lidar frame period (OEM variants ship different
	// sensor rates).
	Period float64 `json:"period"`
	// Load jitters the execution-cost model of every service on the
	// vehicle (slower or faster compute platforms).
	Load float64 `json:"load"`
	// Loss jitters the inter-ECU message loss probability.
	Loss float64 `json:"loss"`
}

// Uniform returns a spec with every field set to the same fraction.
func Uniform(j float64) JitterSpec {
	return JitterSpec{ClockEpsilon: j, LinkBCRT: j, LinkJitter: j, Period: j, Load: j, Loss: j}
}

// Validate checks every fraction is in [0, 1).
func (s JitterSpec) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"clock_epsilon", s.ClockEpsilon}, {"link_bcrt", s.LinkBCRT},
		{"link_jitter", s.LinkJitter}, {"period", s.Period},
		{"load", s.Load}, {"loss", s.Loss},
	} {
		if f.v < 0 || f.v >= 1 {
			return fmt.Errorf("fleet: jitter fraction %s=%g outside [0,1)", f.name, f.v)
		}
	}
	return nil
}

// VehicleSeed is the pure seed split: a splitmix64-style hash of the fleet
// seed and the vehicle index. No RNG state is shared between vehicles, so
// the seed of vehicle i does not depend on how many vehicles exist — the
// regression the determinism battery pins.
func VehicleSeed(fleetSeed int64, vehicle int) int64 {
	z := uint64(fleetSeed) + uint64(vehicle+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// VehicleParams are the concrete jittered multipliers of one vehicle, all
// drawn from the vehicle's own derived RNG. Every scale lies in
// [1−j, 1+j) for its spec fraction j.
type VehicleParams struct {
	Vehicle int   `json:"vehicle"`
	Seed    int64 `json:"seed"`

	ClockEps   float64 `json:"clock_eps_scale"`
	LinkBCRT   float64 `json:"link_bcrt_scale"`
	LinkJitter float64 `json:"link_jitter_scale"`
	Period     float64 `json:"period_scale"`
	Load       float64 `json:"load_scale"`
	Loss       float64 `json:"loss_scale"`
}

// DeriveParams draws the jitter multipliers of one vehicle. The draw order
// is fixed (clock, BCRT, link jitter, period, load, loss) and every field
// consumes exactly one variate even at fraction 0, so enabling jitter on
// one parameter never changes the draw of another.
func DeriveParams(fleetSeed int64, vehicle int, spec JitterSpec) VehicleParams {
	rng := sim.NewRNG(VehicleSeed(fleetSeed, vehicle)).Derive("fleet-jitter")
	scale := func(j float64) float64 { return 1 + rng.Uniform(-j, j) }
	return VehicleParams{
		Vehicle:    vehicle,
		Seed:       VehicleSeed(fleetSeed, vehicle),
		ClockEps:   scale(spec.ClockEpsilon),
		LinkBCRT:   scale(spec.LinkBCRT),
		LinkJitter: scale(spec.LinkJitter),
		Period:     scale(spec.Period),
		Load:       scale(spec.Load),
		Loss:       scale(spec.Loss),
	}
}

func scaleDur(d sim.Duration, s float64) sim.Duration {
	return sim.Duration(float64(d) * s)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ScaleDist scales a duration distribution by a factor, preserving its
// shape: the location parameters (and truncation bounds) scale, the
// shape parameters (σ) do not. Unknown distribution types are returned
// unchanged — the jitter spec only promises to jitter what it can model.
func ScaleDist(d sim.Dist, s float64) sim.Dist {
	switch v := d.(type) {
	case sim.Constant:
		return sim.Constant(scaleDur(sim.Duration(v), s))
	case sim.UniformDist:
		return sim.UniformDist{Lo: scaleDur(v.Lo, s), Hi: scaleDur(v.Hi, s)}
	case sim.NormalDist:
		return sim.NormalDist{Mean: scaleDur(v.Mean, s), Stddev: scaleDur(v.Stddev, s),
			Min: scaleDur(v.Min, s), Max: scaleDur(v.Max, s)}
	case sim.LogNormalDist:
		return sim.LogNormalDist{Median: scaleDur(v.Median, s), Sigma: v.Sigma,
			Shift: scaleDur(v.Shift, s), Max: scaleDur(v.Max, s)}
	default:
		return d
	}
}

// ScaleCosts multiplies every execution-cost coefficient of the model by
// the load factor; the multiplicative jitter shape (σ) is preserved. This
// is also the knob the saturation analyzer turns.
func ScaleCosts(c lidar.CostModel, s float64) lidar.CostModel {
	c.FusePerPoint = scaleDur(c.FusePerPoint, s)
	c.ClassifyPerPoint = scaleDur(c.ClassifyPerPoint, s)
	c.ClusterPerPoint = scaleDur(c.ClusterPerPoint, s)
	c.PlanPerObject = scaleDur(c.PlanPerObject, s)
	c.RenderPerPoint = scaleDur(c.RenderPerPoint, s)
	c.BaseCost = scaleDur(c.BaseCost, s)
	return c
}

// Apply builds the vehicle's perception configuration from the base
// scenario: the vehicle seed replaces the base seed and every jittered
// parameter is scaled by its multiplier. The base is not mutated.
func (p VehicleParams) Apply(base perception.Config) perception.Config {
	cfg := base
	cfg.Seed = p.Seed
	cfg.ClockEpsilon = scaleDur(base.ClockEpsilon, p.ClockEps)
	cfg.Period = scaleDur(base.Period, p.Period)
	cfg.Network = netsim.Config{
		BCRT:            scaleDur(base.Network.BCRT, p.LinkBCRT),
		Jitter:          ScaleDist(base.Network.Jitter, p.LinkJitter),
		BytesPerSecond:  base.Network.BytesPerSecond,
		LossProb:        clamp01(base.Network.LossProb * p.Loss),
		RetransmitDelay: base.Network.RetransmitDelay,
	}
	cfg.Costs = ScaleCosts(base.Costs, p.Load)
	return cfg
}

// SegmentCount is the per-segment verdict tally of one vehicle.
type SegmentCount struct {
	Name        string `json:"name"`
	Activations int    `json:"activations"`
	OK          int    `json:"ok"`
	Recovered   int    `json:"recovered"`
	Missed      int    `json:"missed"`
}

// VehicleResult is the retained outcome of one vehicle sim. The system
// itself is discarded on the worker, so a thousand-vehicle fleet does not
// hold a thousand kernels alive.
type VehicleResult struct {
	Vehicle  int           `json:"vehicle"`
	Seed     int64         `json:"seed"`
	Campaign string        `json:"campaign,omitempty"`
	Params   VehicleParams `json:"params"`

	Activations int     `json:"activations"`
	OK          int     `json:"ok"`
	Recovered   int     `json:"recovered"`
	Missed      int     `json:"missed"`
	MissRate    float64 `json:"miss_rate"` // exceptions / activations

	Segments []SegmentCount `json:"segments"`

	// Blame is the vehicle's compact miss-attribution rollup (nil unless
	// the fleet ran with Config.Blame).
	Blame *blame.Summary `json:"blame,omitempty"`

	// Oracle cross-check outcome (OracleChecked false when disabled).
	OracleChecked  bool     `json:"oracle_checked,omitempty"`
	FalseNegatives int      `json:"false_negatives,omitempty"`
	FalsePositives int      `json:"false_positives,omitempty"`
	Violations     []string `json:"violations,omitempty"`

	Err string `json:"err,omitempty"`
}

// Exceptions returns the vehicle's temporal-exception count.
func (v VehicleResult) Exceptions() int { return v.Recovered + v.Missed }

// monitoredStatsInto lists the vehicle's monitored segments in a fixed
// order, so the merged report is stable regardless of build internals. The
// buffer is the caller's scratch, reused across vehicles on one worker.
func monitoredStatsInto(buf []*monitor.SegmentStats, sys *perception.System) []*monitor.SegmentStats {
	out := buf[:0]
	if sys.RemFront != nil {
		out = append(out, sys.RemFront.Stats(), sys.RemRear.Stats(),
			sys.FusionFront.Stats(), sys.FusionRear.Stats(), sys.RemFused.Stats())
	}
	out = append(out, sys.SegObjects.Stats(), sys.SegGround.Stats())
	return out
}

// VehicleArena is the per-worker reusable scratch of a fleet run (see
// parallel.ForEachArena): buffers every vehicle overwrites in full, never
// state that flows between vehicles.
type VehicleArena struct {
	stats []*monitor.SegmentStats
}

// NewVehicleArena creates an empty arena.
func NewVehicleArena() *VehicleArena { return &VehicleArena{} }

// RunVehicle builds and runs one jittered vehicle sim: the base scenario
// under the vehicle's parameters, with an optional fault campaign and an
// optional ground-truth soundness oracle (requires a monitored full-chain
// base). Everything is constructed from the vehicle seed, so calls are
// independent and can run on any worker in any order.
func RunVehicle(base perception.Config, p VehicleParams, camp faultinject.Campaign, withOracle bool) VehicleResult {
	return NewVehicleArena().RunVehicle(base, p, camp, withOracle)
}

// RunVehicle runs one vehicle reusing the arena's scratch buffers.
func (a *VehicleArena) RunVehicle(base perception.Config, p VehicleParams, camp faultinject.Campaign, withOracle bool) VehicleResult {
	return a.runVehicle(base, p, camp, withOracle, false)
}

func (a *VehicleArena) runVehicle(base perception.Config, p VehicleParams, camp faultinject.Campaign, withOracle, withBlame bool) VehicleResult {
	res := VehicleResult{Vehicle: p.Vehicle, Seed: p.Seed, Campaign: camp.Name, Params: p}
	cfg := p.Apply(base)
	sys := perception.Build(cfg)

	// Per-vehicle blame: a private online stack without a log feeds its
	// engine through the flight-recorder observer; the vehicle retains only
	// the compact Summary, so fleet memory stays flat in vehicle count. The
	// summary is a pure function of the vehicle seed, so the fleet rollup
	// is byte-identical between serial and parallel runs.
	var st *online.Stack
	if withBlame {
		st, _ = online.New("sim", nil, nil) // only opening a log can fail
		perception.AttachTelemetry(sys, st.Sink)
	}

	var orc *faultinject.Oracle
	if withOracle {
		orc = faultinject.ForPerception(sys, camp)
	}
	if len(camp.Faults) > 0 {
		if err := faultinject.NewInjector(sim.NewRNG(p.Seed)).Apply(camp, faultinject.TargetsOf(sys)); err != nil {
			res.Err = fmt.Sprintf("apply campaign %q: %v", camp.Name, err)
			return res
		}
	}
	sys.Run()

	a.stats = monitoredStatsInto(a.stats, sys)
	res.Segments = make([]SegmentCount, 0, len(a.stats))
	for _, st := range a.stats {
		ok, rec, miss := st.Counts()
		res.Segments = append(res.Segments, SegmentCount{
			Name: st.Name, Activations: ok + rec + miss, OK: ok, Recovered: rec, Missed: miss,
		})
		res.Activations += ok + rec + miss
		res.OK += ok
		res.Recovered += rec
		res.Missed += miss
	}
	if res.Activations > 0 {
		res.MissRate = float64(res.Exceptions()) / float64(res.Activations)
	}
	if st != nil {
		// Settle blame without Close: the vehicle exports no recorder, so
		// it gains no blame-exemplar track.
		st.Blame.Flush()
		s := st.Blame.Summarize(blame.RecorderResolvers(st.Sink.Rec))
		res.Blame = &s
	}

	if orc != nil {
		res.OracleChecked = true
		rep := orc.Check()
		for _, v := range rep.Violations {
			switch v.Kind {
			case faultinject.KindFalseNegative, faultinject.KindLostNotDetected:
				res.FalseNegatives++
			case faultinject.KindFalsePositive:
				res.FalsePositives++
			}
			res.Violations = append(res.Violations, v.String())
		}
	}
	return res
}

// Config parameterizes a fleet run.
type Config struct {
	// Size is the number of vehicles.
	Size int
	// Seed is the fleet seed every vehicle seed is split from.
	Seed int64
	// Jitter declares the per-vehicle parameter jitter bounds.
	Jitter JitterSpec
	// Base is the scenario every vehicle is jittered from.
	Base perception.Config
	// Mix is an optional fault-class mix: vehicle i runs campaign
	// Mix[i mod len(Mix)]. An empty-fault campaign is a nominal slot.
	// Assignment is a pure function of the index, so growing the fleet
	// never reassigns existing vehicles.
	Mix []faultinject.Campaign
	// Oracle runs the ground-truth soundness oracle on every vehicle
	// (requires a monitored full-chain Base).
	Oracle bool
	// Blame attaches a per-vehicle miss-attribution engine and rolls the
	// per-vehicle summaries up into the fleet result. Off by default: it
	// attaches full telemetry to every vehicle sim, which nominal fleet
	// sweeps don't pay for.
	Blame bool
	// Workers is the worker-pool size (≤0: GOMAXPROCS, 1: serial).
	Workers int
}

// Validate checks the fleet configuration.
func (c Config) Validate() error {
	if c.Size <= 0 {
		return fmt.Errorf("fleet: size %d must be positive", c.Size)
	}
	if err := c.Jitter.Validate(); err != nil {
		return err
	}
	if c.Oracle && (!c.Base.Monitored || !c.Base.FullChain) {
		return fmt.Errorf("fleet: the oracle needs a monitored full-chain base scenario")
	}
	for _, m := range c.Mix {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("fleet: mix campaign %q: %w", m.Name, err)
		}
	}
	return nil
}

// Run executes the fleet: every vehicle sim is one shard of the work-
// stealing pool and results are merged in vehicle order, so the returned
// Result (and everything rendered from it) is byte-identical between
// serial and parallel runs.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	vehicles := parallel.MapArena(cfg.Workers, cfg.Size, NewVehicleArena,
		func(a *VehicleArena, i int) VehicleResult {
			p := DeriveParams(cfg.Seed, i, cfg.Jitter)
			var camp faultinject.Campaign
			if len(cfg.Mix) > 0 {
				camp = cfg.Mix[i%len(cfg.Mix)]
			}
			return a.runVehicle(cfg.Base, p, camp, cfg.Oracle, cfg.Blame)
		})
	return aggregate(cfg, vehicles), nil
}

// MixByName resolves a list of campaign names against the chaos-matrix
// campaign set of internal/faultinject. The name "nominal" (or "") maps to
// a fault-free slot, so mixed fleets can contain healthy vehicles.
func MixByName(names []string) ([]faultinject.Campaign, error) {
	all := faultinject.AllCampaigns()
	mix := make([]faultinject.Campaign, 0, len(names))
	for _, n := range names {
		if n == "" || n == "nominal" {
			mix = append(mix, faultinject.Campaign{Name: "nominal"})
			continue
		}
		found := false
		for _, e := range all {
			if e.Campaign.Name == n {
				mix = append(mix, e.Campaign)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fleet: unknown campaign %q in fault mix", n)
		}
	}
	return mix, nil
}
