package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"chainmon/internal/adaptive"
	"chainmon/internal/faultinject"
	"chainmon/internal/fleet"
	"chainmon/internal/monitor"
	"chainmon/internal/perception"
	"chainmon/internal/realtime"
	"chainmon/internal/scenario"
)

// mode is a set of run modes; a flag-table row names the modes its flag
// applies to.
type mode uint8

const (
	modeSim      mode = 1 << iota // one simulated run
	modeSeeds                     // -seeds N > 1: a sweep of simulated runs
	modeRealtime                  // -realtime: one run on the wall clock
	modeFleet                     // chainmon fleet

	rootModes = modeSim | modeSeeds | modeRealtime
	simModes  = modeSim | modeSeeds
	oneRun    = modeSim | modeRealtime
)

func (m mode) String() string {
	var names []string
	for i, name := range []string{"sim", "-seeds", "-realtime", "fleet"} {
		if m&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, ", ")
}

// runConfig is one validated chainmon run. Every mode fills it through the
// same flag table (parseRun) and scenario layering (layer).
type runConfig struct {
	mode mode

	// Scenario and mode flags.
	frames                 int
	seed                   int64
	deadline               time.Duration
	loss                   float64
	full, recover          bool
	configPath, faultsPath string
	seeds, workers         int
	realtime               bool

	// Outputs of a single run.
	traceOut, telTrace, telCSV, metricsOut, metricsAddr, traceStream string
	traceRotate                                                      int64

	// The -adaptive control loop.
	adaptive      bool
	adaptInterval time.Duration
	adaptGuard    float64

	// Fleet flags; fleet holds -fleet-size, -fleet-seed, -oracle and -blame.
	fleet              fleet.Config
	fleetJitter        float64
	fleetOut, faultMix string
	saturate           bool
	sat                fleet.SaturationConfig

	// Layered from the flags above and the scenario files.
	sim      perception.Config    // the scenario of sim, -seeds and fleet runs
	camp     faultinject.Campaign // the faults armed in sim and -seeds runs
	rt       realtime.Config      // the -realtime run
	scenario string               // the scenario name in the /health meta section
}

// flagRow is one row of the flag × mode table: the runConfig field a flag
// sets, the modes it applies to, the flag it requires ("" for none) and an
// optional value check.
type flagRow struct {
	ptr      any
	modes    mode
	requires string
	check    func() error
	usage    string
}

// flagTable is the flag × mode table of the root command and of "chainmon
// fleet". A command defines the flags whose modes it runs; a flag given in
// a mode it does not apply to, without the flag it requires or with a value
// its check rejects is an error.
func (rc *runConfig) flagTable() map[string]flagRow {
	return map[string]flagRow{
		"frames":   {ptr: &rc.frames, modes: rootModes | modeFleet, usage: "number of lidar frames to simulate (per vehicle in a fleet)"},
		"seed":     {ptr: &rc.seed, modes: rootModes, usage: "simulation seed"},
		"deadline": {ptr: &rc.deadline, modes: simModes, usage: "local segment deadline d_mon"},
		"loss":     {ptr: &rc.loss, modes: simModes, usage: "inter-ECU message loss probability"},
		"full":     {ptr: &rc.full, modes: simModes | modeFleet, usage: "monitor the full chains (remote + fusion segments)"},
		"recover":  {ptr: &rc.recover, modes: simModes, usage: "install recovery handlers on the lidar remote segments"},
		"config":   {ptr: &rc.configPath, modes: simModes | modeFleet, usage: "JSON scenario file, the jitter base of a fleet (flags are applied on top)"},
		"faults":   {ptr: &rc.faultsPath, modes: simModes, usage: "JSON fault-campaign file injected into the run (cross-checked by the ground-truth oracle with -full)"},
		"seeds": {ptr: &rc.seeds, modes: simModes, check: func() error { return atLeast(rc.seeds, 1) },
			usage: "run the scenario at N consecutive seeds starting at -seed; reports are merged in seed order"},
		"parallel":        {ptr: &rc.workers, modes: modeSeeds | modeFleet, usage: "worker pool size for -seeds runs and fleets (0: GOMAXPROCS, 1: serial)"},
		"trace":           {ptr: &rc.traceOut, modes: modeSim, usage: "also record an unmonitored trace to this JSON file"},
		"telemetry-trace": {ptr: &rc.telTrace, modes: modeSim, usage: "write the monitor's own flight-recorder trace (Chrome trace-event JSON, open in Perfetto)"},
		"metrics-out":     {ptr: &rc.metricsOut, modes: oneRun | modeFleet, usage: "write the run's metrics (a fleet's rollup) as Prometheus text to this file after the run"},
		"telemetry-csv":   {ptr: &rc.telCSV, modes: modeSim, usage: "write the flight-recorder events as CSV to this file"},
		"metrics-addr":    {ptr: &rc.metricsAddr, modes: oneRun, usage: "serve /metrics on this address after the run (blocks; ctrl-C to exit). With -realtime: serve live during the run"},
		"trace-stream":    {ptr: &rc.traceStream, modes: oneRun, usage: "stream the flight recorder to this binary log while the run progresses (see 'chainmon trace convert/report')"},
		"trace-rotate": {ptr: &rc.traceRotate, modes: oneRun, requires: "trace-stream", check: func() error { return atLeast(int(rc.traceRotate), 0) },
			usage: "rotate the -trace-stream log into gzip-compressed segments (<log>.0.gz, .1.gz, …) of roughly this many uncompressed bytes each"},
		"realtime":       {ptr: &rc.realtime, modes: rootModes, usage: "run the monitor core on the wall clock (real goroutines and deadlines) instead of the simulation"},
		"adaptive":       {ptr: &rc.adaptive, modes: oneRun, usage: "run the adaptive budget control loop: periodically re-solve the segment deadlines from live latency quantiles and hot-swap them mid-run"},
		"adapt-interval": {ptr: &rc.adaptInterval, modes: oneRun, requires: "adaptive", usage: "control-loop tick interval (virtual time in the simulation, wall time with -realtime)"},
		"adapt-guard":    {ptr: &rc.adaptGuard, modes: oneRun, requires: "adaptive", usage: "control-loop hysteresis dead band, as a fraction of the current deadline"},
		"fleet-size":     {ptr: &rc.fleet.Size, modes: modeFleet, usage: "number of vehicles in the fleet"},
		"fleet-seed":     {ptr: &rc.fleet.Seed, modes: modeFleet, usage: "fleet seed; every vehicle seed is split from it"},
		"fleet-jitter":   {ptr: &rc.fleetJitter, modes: modeFleet, usage: "relative per-vehicle parameter jitter in [0,1): clock ε, link BCRT and jitter, frame period, executor load, loss"},
		"fleet-out":      {ptr: &rc.fleetOut, modes: modeFleet, usage: "write the full fleet summary (per-vehicle rows included) as JSON to this file (- for stdout)"},
		"fault-mix":      {ptr: &rc.faultMix, modes: modeFleet, usage: "comma-separated chaos campaign names assigned round-robin to vehicles; \"nominal\" is a fault-free slot (e.g. nominal,burst-loss,clock-step)"},
		"oracle":         {ptr: &rc.fleet.Oracle, modes: modeFleet, usage: "cross-check every vehicle with the ground-truth soundness oracle (implies -full); exits nonzero on any false negative"},
		"blame":          {ptr: &rc.fleet.Blame, modes: modeFleet, usage: "attach a per-vehicle miss-attribution engine and roll the blame summaries up into the fleet result"},
		"saturate":       {ptr: &rc.saturate, modes: modeFleet, usage: "binary-search the load multiplier at which the fleet misses the -sat-target rate"},
		"sat-lo":         {ptr: &rc.sat.Lo, modes: modeFleet, requires: "saturate", usage: "saturation search: lowest load multiplier"},
		"sat-hi":         {ptr: &rc.sat.Hi, modes: modeFleet, requires: "saturate", usage: "saturation search: highest load multiplier"},
		"sat-step":       {ptr: &rc.sat.Step, modes: modeFleet, requires: "saturate", usage: "saturation search: grid resolution of the reported knee"},
		"sat-target":     {ptr: &rc.sat.Target, modes: modeFleet, requires: "saturate", usage: "saturation search: acceptable fleet miss rate"},
	}
}

// atLeast is the value check of a flag with a lower bound.
func atLeast(v, min int) error {
	if v < min {
		return fmt.Errorf("must be at least %d", min)
	}
	return nil
}

// parseRun builds the run configuration of one command: the root command
// (cmd = rootModes) or "chainmon fleet" (cmd = modeFleet). The defaults
// set here are the flag defaults.
func parseRun(name string, cmd mode, args []string) (*runConfig, error) {
	rc := &runConfig{
		frames: 600, seed: 1, deadline: 100 * time.Millisecond, seeds: 1,
		adaptInterval: time.Second, adaptGuard: adaptive.DefaultHysteresis,
		fleet: fleet.Config{Size: 100, Seed: 1}, fleetJitter: 0.1,
		sat: fleet.SaturationConfig{Lo: 0.5, Hi: 2.0, Step: 0.1, Target: 0.01},
	}
	if cmd == modeFleet {
		rc.frames = 120
	}
	table := rc.flagTable()
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	for flagName, r := range table {
		if r.modes&cmd == 0 {
			continue
		}
		switch p := r.ptr.(type) {
		case *int:
			fs.IntVar(p, flagName, *p, r.usage)
		case *int64:
			fs.Int64Var(p, flagName, *p, r.usage)
		case *float64:
			fs.Float64Var(p, flagName, *p, r.usage)
		case *bool:
			fs.BoolVar(p, flagName, *p, r.usage)
		case *string:
			fs.StringVar(p, flagName, *p, r.usage)
		case *time.Duration:
			fs.DurationVar(p, flagName, *p, r.usage)
		}
	}
	fs.Parse(args)

	rc.mode = modeSim
	switch {
	case cmd == modeFleet:
		rc.mode = modeFleet
	case rc.realtime:
		rc.mode = modeRealtime
	case rc.seeds > 1:
		rc.mode = modeSeeds
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q in %v mode: chainmon takes flags only, after an optional trace or fleet subcommand", fs.Arg(0), rc.mode)
	}
	var bad error
	fs.Visit(func(f *flag.Flag) {
		r := table[f.Name]
		switch {
		case bad != nil:
		case r.modes&rc.mode == 0:
			bad = fmt.Errorf("-%s does not apply in %v mode (only in %v)", f.Name, rc.mode, r.modes)
		case r.requires != "" && !isOn(fs.Lookup(r.requires)):
			bad = fmt.Errorf("-%s requires -%s (%v mode)", f.Name, r.requires, rc.mode)
		case r.check != nil && r.check() != nil:
			bad = fmt.Errorf("-%s %v (%v mode)", f.Name, r.check(), rc.mode)
		}
	})
	if bad != nil {
		return nil, bad
	}

	// A flag goes over the scenario when it is set on the command line.
	// Without a -config file the flag defaults apply too, except on the
	// wall clock, whose base is realtime.DefaultConfig().
	over := map[string]bool{}
	visit := fs.Visit
	if rc.configPath == "" && rc.mode != modeRealtime {
		visit = fs.VisitAll
	}
	visit(func(f *flag.Flag) { over[f.Name] = true })
	return rc, rc.layer(over)
}

// isOn reports whether a required flag is in force: true, or non-empty.
func isOn(f *flag.Flag) bool {
	v := f.Value.String()
	return v != "" && v != "false"
}

// layer builds the run's scenario: a -config file over
// perception.DefaultConfig() (the wall clock's own defaults on -realtime),
// then the flags named in over, then the -faults campaign and -recover
// handlers.
func (rc *runConfig) layer(over map[string]bool) error {
	if rc.mode == modeRealtime {
		rc.rt, rc.scenario = realtime.DefaultConfig(), "realtime"
		if over["frames"] {
			rc.rt.Frames = rc.frames
		}
		if over["seed"] {
			rc.rt.Seed = rc.seed
		}
		return nil
	}
	rc.sim, rc.scenario = perception.DefaultConfig(), "perception"
	if rc.configPath != "" {
		b, err := os.ReadFile(rc.configPath)
		if err != nil {
			return fmt.Errorf("reading scenario: %w", err)
		}
		if rc.sim, rc.camp, err = scenario.LoadFull(bytes.NewReader(b)); err != nil {
			return err
		}
		rc.scenario = strings.TrimSuffix(filepath.Base(rc.configPath), filepath.Ext(rc.configPath))
	}
	if rc.mode == modeFleet && len(rc.camp.Faults) > 0 {
		return fmt.Errorf("-config %s embeds %d faults, which fleet mode does not arm; assign fault campaigns to vehicles with -fault-mix", rc.configPath, len(rc.camp.Faults))
	}
	if rc.faultsPath != "" {
		b, err := os.ReadFile(rc.faultsPath)
		if err != nil {
			return fmt.Errorf("reading fault campaign: %w", err)
		}
		fc, err := faultinject.LoadCampaign(bytes.NewReader(b))
		if err != nil {
			return err
		}
		// A -faults campaign rides on top of any scenario-embedded faults.
		rc.camp.Name = fc.Name
		rc.camp.Faults = append(rc.camp.Faults, fc.Faults...)
	}
	if over["frames"] {
		rc.sim.Frames = rc.frames
	}
	if over["seed"] {
		rc.sim.Seed = rc.seed
	}
	if over["deadline"] {
		rc.sim.LocalDeadline = rc.deadline
	}
	if over["loss"] {
		rc.sim.Network.LossProb = rc.loss
	}
	if over["full"] {
		rc.sim.FullChain = rc.full
	}
	if rc.fleet.Oracle {
		rc.sim.FullChain = true
	}
	if rc.recover {
		rc.sim.Handlers = map[string]monitor.Handler{
			perception.SegFrontRemote: perception.HoldOver,
			perception.SegRearRemote:  perception.HoldOver,
		}
	}
	return nil
}
