package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"chainmon/internal/faultinject"
	"chainmon/internal/fleet"
	"chainmon/internal/parallel"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
)

const (
	// fleetWorkers matches the two cores the benchmark is sized for.
	fleetWorkers = 2
	// fleetPerSlot vehicles run each slot of the 13-slot mix in one job.
	fleetPerSlot = 2
	// fleetFrames is the length of one vehicle run.
	fleetFrames = 120
	// fleetSetups is how many times set-up is repeated for its median.
	fleetSetups = 101
)

// fleetMixNames is the nominal slot plus every chaos campaign, in an order
// permuted by the seed.
func fleetMixNames(seed int64) []string {
	names := []string{"nominal"}
	for _, e := range faultinject.AllCampaigns() {
		names = append(names, e.Campaign.Name)
	}
	rng := sim.NewRNG(seed).Derive("fleet-mix")
	for i := len(names) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		names[i], names[j] = names[j], names[i]
	}
	return names
}

// fleetConfig resolves the fleet of one seed: 120-frame full-chain vehicles
// with 10% jitter, the oracle on and blame off, over the seeded mix.
func fleetConfig(seed int64) (fleet.Config, error) {
	base := perception.DefaultConfig()
	base.Frames = fleetFrames
	base.FullChain = true
	mix, err := fleet.MixByName(fleetMixNames(seed))
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.Config{
		Size:    fleetPerSlot * len(mix),
		Seed:    seed,
		Jitter:  fleet.Uniform(0.1),
		Base:    base,
		Mix:     mix,
		Oracle:  true,
		Workers: fleetWorkers,
	}
	return cfg, cfg.Validate()
}

// checkFleet counts the vehicles that erred or broke the oracle.
func checkFleet(res *fleet.Result, out *outcome) {
	for _, v := range res.Vehicles {
		out.attempted++
		if v.Err != "" || len(v.Violations) > 0 {
			out.failed++
			out.fail("vehicle %d (%s): err %q, %d oracle violations", v.Vehicle, v.Campaign, v.Err, len(v.Violations))
		}
	}
}

// fleetChaos runs fleet jobs for the whole budget (untraced), or replays
// the vehicles phase by phase (traced).
func fleetChaos(seed int64, budget time.Duration, traced bool, out *outcome) error {
	spd := newSpeed()
	var setupS []float64
	var cfg fleet.Config
	f := spd.sample()
	for i := 0; i < fleetSetups; i++ {
		t0 := time.Now()
		c, err := fleetConfig(seed)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds()/f)
		cfg = c
	}
	if traced {
		return fleetTraced(cfg, budget, spd, out)
	}

	var vps, rawVPS, allocs, turnaroundUS, heapMB []float64
	var first *fleet.Result
	deadline := time.Now().Add(budget)
	for job := 0; job == 0 || time.Now().Before(deadline); job++ {
		runtime.GC()
		f := spd.sample()
		var res *fleet.Result
		m, err := timeRun(func() error {
			var err error
			res, err = fleet.Run(cfg)
			return err
		})
		if err != nil {
			return err
		}
		n := float64(len(res.Vehicles))
		rawVPS = append(rawVPS, n/m.seconds)
		vps = append(vps, n/m.seconds*f)
		allocs = append(allocs, float64(m.mallocs)/n)
		turnaroundUS = append(turnaroundUS, m.seconds*1e6/f)
		checkFleet(res, out)
		if first == nil {
			first = res
		} else if !sameCounts(first, res) {
			out.fail("job %d: per-vehicle verdict counts differ from the first job on the same seed", job)
		}
		heapMB = append(heapMB, liveHeapMB())
		runtime.KeepAlive(res)
	}
	out.note("fleet_chaos: %d jobs of %d vehicles, mix %v", len(vps), cfg.Size, fleetMixNames(seed))
	out.note("raw %.4g vehicles/s, reference pass %.3g ms", median(rawVPS), spd.passMS())
	out.set("setup_s", median(setupS))
	out.set("throughput_per_s", median(vps))
	out.set("allocs_per_op", median(allocs))
	out.set("heap_mb", median(heapMB))
	out.setPct("latency_us_p50", newDist("fleet job turnaround", turnaroundUS), 0.5, 1)
	return nil
}

// sameCounts reports whether two results agree on every vehicle's counts.
func sameCounts(a, b *fleet.Result) bool {
	if len(a.Vehicles) != len(b.Vehicles) {
		return false
	}
	for i := range a.Vehicles {
		va, vb := a.Vehicles[i], b.Vehicles[i]
		if va.Activations != vb.Activations || va.OK != vb.OK || va.Recovered != vb.Recovered || va.Missed != vb.Missed {
			return false
		}
	}
	return true
}

// Phases of a replayed vehicle, in order.
const (
	phaseBuild = iota // DeriveParams, Apply, perception.Build
	phaseWire         // faultinject.ForPerception, Injector.Apply
	phaseRun          // System.Run
	phaseCheck        // Oracle.Check
	numPhases
)

// vehicleCounts is what a replayed vehicle produced.
type vehicleCounts struct {
	activations, missed, violations int
}

// replayVehicle rebuilds vehicle i of the fleet through the public calls
// fleet.Run makes; mark runs after each phase.
func replayVehicle(cfg fleet.Config, i int, mark func()) (vehicleCounts, error) {
	var vc vehicleCounts
	p := fleet.DeriveParams(cfg.Seed, i, cfg.Jitter)
	camp := cfg.Mix[i%len(cfg.Mix)]
	sys := perception.Build(p.Apply(cfg.Base))
	mark()
	orc := faultinject.ForPerception(sys, camp)
	if len(camp.Faults) > 0 {
		if err := faultinject.NewInjector(sim.NewRNG(p.Seed)).Apply(camp, faultinject.TargetsOf(sys)); err != nil {
			return vc, fmt.Errorf("vehicle %d: applying %q: %w", i, camp.Name, err)
		}
	}
	mark()
	sys.Run()
	mark()
	rep := orc.Check()
	mark()
	vc.violations = len(rep.Violations)
	for _, st := range segmentStats(sys) {
		ok, rec, miss := st.Counts()
		vc.activations += ok + rec + miss
		vc.missed += miss
	}
	return vc, nil
}

// timedVehicle is a replayed vehicle with its phase durations.
type timedVehicle struct {
	counts vehicleCounts
	phases [numPhases]time.Duration
	err    error
}

// workerArena accumulates one pool worker's busy time.
type workerArena struct{ busy time.Duration }

// fleetTraced reports the fleet's phase split, pool balance and render
// cost, round after round until the budget is spent.
func fleetTraced(cfg fleet.Config, budget time.Duration, spd *speed, out *outcome) error {
	var vps, renderMS, busyShare, skew, buildAllocs, runAllocs []float64
	var perVehicle [numPhases][]float64 // seconds per vehicle
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		spd.sample()
		t0 := time.Now()
		res, err := fleet.Run(cfg)
		if err != nil {
			return err
		}
		vps = append(vps, float64(len(res.Vehicles))/time.Since(t0).Seconds())
		checkFleet(res, out)
		t1 := time.Now()
		_ = res.Summary()
		if err := res.WriteJSON(io.Discard); err != nil {
			return fmt.Errorf("rendering the fleet result: %w", err)
		}
		renderMS = append(renderMS, float64(time.Since(t1).Nanoseconds())/1e6)

		var mu sync.Mutex
		var arenas []*workerArena
		start := time.Now()
		replayed := parallel.MapArena(cfg.Workers, cfg.Size,
			func() *workerArena {
				a := &workerArena{}
				mu.Lock()
				arenas = append(arenas, a)
				mu.Unlock()
				return a
			},
			func(a *workerArena, i int) timedVehicle {
				var tv timedVehicle
				last, n := time.Now(), 0
				tv.counts, tv.err = replayVehicle(cfg, i, func() {
					now := time.Now()
					tv.phases[n] = now.Sub(last)
					last, n = now, n+1
				})
				for _, d := range tv.phases {
					a.busy += d
				}
				return tv
			})
		wall := time.Since(start)
		var sums [numPhases]time.Duration
		for i, tv := range replayed {
			if tv.err != nil {
				return tv.err
			}
			v, c := res.Vehicles[i], tv.counts
			if c.activations != v.Activations || c.missed != v.Missed || c.violations != len(v.Violations) {
				out.fail("vehicle %d replay: %d activations, %d missed, %d violations; fleet.Run: %d, %d, %d",
					i, c.activations, c.missed, c.violations, v.Activations, v.Missed, len(v.Violations))
			}
			for ph, d := range tv.phases {
				sums[ph] += d
			}
		}
		for ph, d := range sums {
			perVehicle[ph] = append(perVehicle[ph], d.Seconds()/float64(cfg.Size))
		}
		var sum, lo, hi time.Duration
		for k, a := range arenas {
			sum += a.busy
			if k == 0 || a.busy < lo {
				lo = a.busy
			}
			if a.busy > hi {
				hi = a.busy
			}
		}
		busyShare = append(busyShare, sum.Seconds()/(float64(len(arenas))*wall.Seconds()))
		if lo > 0 {
			skew = append(skew, hi.Seconds()/lo.Seconds())
		}

		// Allocation split: the process-wide counter cannot separate
		// concurrent workers, so one vehicle per mix slot is replayed
		// serially between counter reads.
		var bAllocs, rAllocs uint64
		for i := 0; i < len(cfg.Mix); i++ {
			var ms [numPhases + 1]runtime.MemStats
			runtime.ReadMemStats(&ms[0])
			n := 1
			if _, err := replayVehicle(cfg, i, func() { runtime.ReadMemStats(&ms[n]); n++ }); err != nil {
				return err
			}
			bAllocs += ms[phaseBuild+1].Mallocs - ms[phaseBuild].Mallocs
			rAllocs += ms[phaseRun+1].Mallocs - ms[phaseRun].Mallocs
		}
		buildAllocs = append(buildAllocs, float64(bAllocs)/float64(len(cfg.Mix)))
		runAllocs = append(runAllocs, float64(rAllocs)/float64(len(cfg.Mix)))
	}
	out.note("fleet_chaos traced: %d rounds of %d vehicles on %d workers", len(vps), cfg.Size, cfg.Workers)
	out.set("machine.ref_pass_ms", spd.passMS())
	out.set("fleet.vehicles_per_s", median(vps))
	out.set("fleet.render_ms", median(renderMS))
	out.set("perception.build_us_per_vehicle", median(perVehicle[phaseBuild])*1e6)
	out.set("perception.build_allocs_per_vehicle", median(buildAllocs))
	out.set("faultinject.wire_us_per_vehicle", median(perVehicle[phaseWire])*1e6)
	out.set("faultinject.check_us_per_vehicle", median(perVehicle[phaseCheck])*1e6)
	out.set("sim.run_ms_per_vehicle", median(perVehicle[phaseRun])*1e3)
	out.set("sim.run_allocs_per_vehicle", median(runAllocs))
	out.set("parallel.busy_share", median(busyShare))
	out.set("parallel.worker_skew", median(skew))
	return nil
}
