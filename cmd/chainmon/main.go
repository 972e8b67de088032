// Command chainmon runs the monitored Autoware-style perception scenario
// and prints per-segment statistics, chain accounting and monitor
// overheads. It is the quickest way to see the monitoring system working
// end to end.
//
// Usage:
//
//	chainmon [flags]              sim: one simulated run
//	chainmon -seeds N [flags]     -seeds: one simulated run per seed (N > 1)
//	chainmon -realtime [flags]    -realtime: one run on the wall clock
//	chainmon fleet [flags]        fleet: parameter-jittered vehicle runs
//	chainmon trace convert events.chmtrc out.json
//	chainmon trace report [-top N] events.chmtrc
//	chainmon trace report -blame events.chmtrc
//	chainmon trace report -diff [-diff-rel F] [-diff-abs D] [-diff-miss F] old.chmtrc new.chmtrc
//
// Every mode fills one run configuration from one flag table. A flag
// applies in the modes its row marks, and some require another flag:
//
//	flag                                       sim  -seeds  -realtime  fleet  requires
//	-frames                                     x     x        x        x
//	-seed -realtime                             x     x        x
//	-deadline -loss -recover -faults -seeds     x     x
//	-full -config                               x     x                 x
//	-parallel                                         x                 x
//	-trace -telemetry-trace -telemetry-csv      x
//	-metrics-out                                x              x        x
//	-metrics-addr -trace-stream -adaptive       x              x
//	-trace-rotate                               x              x              -trace-stream
//	-adapt-interval -adapt-guard                x              x              -adaptive
//	-fleet-size -fleet-seed -fleet-jitter                               x
//	-fleet-out -fault-mix -oracle -blame -saturate                      x
//	-sat-lo -sat-hi -sat-step -sat-target                               x     -saturate
//
// -seeds must be at least 1 and -trace-rotate at least 0. Anything else
// exits 2 with an error naming the flag and the mode, for example:
//
//	chainmon -frames 5 bogus        a positional argument
//	chainmon flet -fleet-size 2     a misspelled subcommand
//	chainmon -adapt-interval 2s     without -adaptive
//	chainmon -parallel 4            on a single run
//	chainmon -seeds 0
//	chainmon fleet -sat-lo 0.3      without -saturate
//	chainmon fleet -config examples/scenarios/chaos-bursty-link.json
//	                                embedded faults; fleets take -fault-mix
//
// A -config scenario file goes over the built-in defaults, and a flag set
// on the command line goes over the file even at its zero value: -config
// lossy-degraded.json -loss 0 -full=false runs lossless and single-chain.
// Without a file the flag defaults apply.
//
// A fleet jitters every vehicle from the base scenario by a seeded RNG and
// prints the same bytes at every -parallel. -realtime serves /metrics live
// during the run; the sim serves it after the run.
//
// -trace-stream drains the flight recorder to an append-only binary log
// (bounded memory; drops are counted, never blocking), rotated into gzip
// segments by -trace-rotate. "trace convert" turns the log into Perfetto
// JSON with flow arrows; "trace report" prints per-hop and per-segment
// latency quantiles and the worst activation paths; "-blame" recomputes the
// miss attribution with the same renderer as the run's /health blame
// section, one level of indentation apart;
// "-diff" exits nonzero when the new log regressed beyond the thresholds. A
// log that ends inside a record is read up to the cut, with a warning.
//
// Whenever telemetry is on, a live health layer rides along: quantile
// sketches and (m,k) SLO burn per segment and chain as chainmon_live_*
// gauges on /metrics and -metrics-out, a /health JSON document, and
// /debug/pprof/ on the -metrics-addr mux. -adaptive re-solves the local
// segment deadlines from the live quantiles and hot-swaps them, guarded by
// hysteresis (-adapt-guard), clamps and burn-aware hold/rollback; in the
// sim it ticks as a kernel event, so same-seed runs actuate identically.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"chainmon/internal/adaptive"
	"chainmon/internal/blame"
	"chainmon/internal/faultinject"
	"chainmon/internal/fleet"
	"chainmon/internal/monitor"
	"chainmon/internal/online"
	"chainmon/internal/parallel"
	"chainmon/internal/perception"
	"chainmon/internal/realtime"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
	"chainmon/internal/weaklyhard"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "trace" {
		runTraceCmd(args[1:])
		return
	}
	name, cmd := "chainmon", rootModes
	if len(args) > 0 && args[0] == "fleet" {
		name, cmd, args = "chainmon fleet", modeFleet, args[1:]
	}
	rc, err := parseRun(name, cmd, args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(2)
	}
	switch rc.mode {
	case modeFleet:
		runFleet(rc)
	case modeRealtime:
		runRealtime(rc)
	case modeSeeds:
		runSeeds(rc)
	default:
		runSim(rc)
	}
}

// runSim executes one simulated run with its telemetry and exports.
func runSim(rc *runConfig) {
	// The control loop reads live quantiles, so -adaptive implies the live
	// health layer even when no exporter was asked for.
	var st *online.Stack
	if rc.telTrace != "" || rc.metricsOut != "" || rc.telCSV != "" || rc.metricsAddr != "" ||
		rc.traceStream != "" || rc.adaptive {
		st = rc.newStack("sim")
	}
	sound := rc.runOne(rc.sim, st, os.Stdout)
	if st != nil {
		rc.closeStack(st)
	}
	if !sound {
		os.Exit(1)
	}
	if rc.traceOut != "" {
		writeTrace(rc.traceOut, rc.sim)
	}
	if st == nil {
		return
	}
	export(rc.telTrace, "telemetry trace", st.Sink.WritePerfetto)
	export(rc.metricsOut, "metrics", st.Sink.WriteMetrics)
	export(rc.telCSV, "telemetry CSV", st.Sink.WriteEventsCSV)
	if rc.metricsAddr != "" {
		ln := listen(st, rc.metricsAddr)
		fmt.Printf("serving metrics on http://%s/metrics (+ /health, /debug/pprof/)\n", ln.Addr())
		log.Fatal(http.Serve(ln, nil))
	}
}

// runSeeds is the multi-seed sweep: each seed is an independent simulation
// sharded over the worker pool; the merged output is ordered by seed, so a
// parallel sweep prints exactly what the serial one would.
func runSeeds(rc *runConfig) {
	type outcome struct {
		out   []byte
		sound bool
	}
	results := parallel.Map(rc.workers, rc.seeds, func(shard int) outcome {
		c := rc.sim
		c.Seed = rc.sim.Seed + int64(shard)
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "### seed %d\n", c.Seed)
		sound := rc.runOne(c, nil, &buf)
		return outcome{buf.Bytes(), sound}
	})
	allSound := true
	for _, r := range results {
		os.Stdout.Write(r.out)
		allSound = allSound && r.sound
	}
	if !allSound {
		os.Exit(1)
	}
}

// runFleet implements "chainmon fleet": N parameter-jittered vehicle sims
// instantiated from one base scenario, sharded over the worker pool and
// merged deterministically — the fleet summary is byte-identical between
// -parallel 1 and -parallel N. Optionally a fault-class mix is assigned
// round-robin across the fleet, the ground-truth oracle is cross-checked per
// vehicle, and a saturation search reports the load multiplier at which the
// fleet starts missing its deadline target.
func runFleet(rc *runConfig) {
	cfg := rc.fleet
	cfg.Base, cfg.Jitter, cfg.Workers = rc.sim, fleet.Uniform(rc.fleetJitter), rc.workers
	if rc.faultMix != "" {
		names := strings.Split(rc.faultMix, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		m, err := fleet.MixByName(names)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Mix = m
	}

	res, err := fleet.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if rc.saturate {
		knee, err := fleet.SaturationSearch(cfg, rc.sat)
		if err != nil {
			log.Fatalf("saturation search: %v", err)
		}
		res.Knee = &knee
	}

	os.Stdout.WriteString(res.Summary())
	if rc.fleetOut == "-" {
		if err := res.WriteJSON(os.Stdout); err != nil {
			log.Fatalf("writing fleet summary: %v", err)
		}
	} else {
		export(rc.fleetOut, "fleet summary", res.WriteJSON)
	}
	if rc.metricsOut != "" {
		reg := telemetry.NewRegistry()
		res.Rollup(reg)
		export(rc.metricsOut, "fleet metrics", (&telemetry.Sink{Reg: reg}).WriteMetrics)
	}

	if len(res.Errs()) > 0 {
		os.Exit(1)
	}
	if cfg.Oracle && (res.FalseNegatives() > 0 || res.FalsePositives() > 0) {
		os.Exit(1)
	}
}

// newStack builds the online stack of one run on either timebase, with
// the -trace-stream log when one was asked for.
func (rc *runConfig) newStack(timebase string) *online.Stack {
	var openLog online.Opener
	if rc.traceStream != "" {
		openLog = func(timebase string, opt telemetry.StreamOptions) (*telemetry.StreamWriter, error) {
			opt.RotateBytes = rc.traceRotate
			return telemetry.NewStreamFile(rc.traceStream, timebase, opt)
		}
	}
	st, err := online.New(timebase, openLog, metaProvider(rc.scenario))
	if err != nil {
		log.Fatalf("starting trace stream: %v", err)
	}
	return st
}

// metaProvider builds the /health meta section: build identity from the
// binary itself, the scenario name, uptime, and the budget epoch currently
// in force (as observed by the blame engine). Consumers that don't know the
// section (cmd/budgetsolve -from-health) ignore it.
func metaProvider(scenario string) func(budgetEpoch uint64) any {
	type runMeta struct {
		Version     string `json:"version"`
		GoVersion   string `json:"go_version"`
		Scenario    string `json:"scenario"`
		UptimeNS    int64  `json:"uptime_ns"`
		BudgetEpoch uint64 `json:"budget_epoch"`
	}
	meta := runMeta{Version: "unknown", GoVersion: "unknown", Scenario: scenario}
	if bi, ok := debug.ReadBuildInfo(); ok {
		meta.GoVersion = bi.GoVersion
		if bi.Main.Version != "" {
			meta.Version = bi.Main.Version
		}
	}
	start := time.Now()
	return func(budgetEpoch uint64) any {
		m := meta
		m.UptimeNS, m.BudgetEpoch = time.Since(start).Nanoseconds(), budgetEpoch
		return m
	}
}

// closeStack finishes the run's stack before any metrics snapshot is taken,
// so chainmon_stream_* in -metrics-out reflect the final counts (snapshot
// and live /metrics must agree at run end), and reports the stream log.
func (rc *runConfig) closeStack(st *online.Stack) {
	if err := st.Close(); err != nil {
		log.Fatalf("closing trace stream: %v", err)
	}
	if st.Stream == nil {
		return
	}
	rotated := ""
	if n := st.Stream.Rotations(); n > 0 {
		rotated = fmt.Sprintf(", %d rotations", n)
	}
	fmt.Printf("trace stream written to %s (%d events, %d bytes, %d dropped%s)\n",
		rc.traceStream, st.Stream.EventsWritten(), st.Stream.BytesWritten(), st.Stream.Dropped(), rotated)
}

// listen binds the -metrics-addr listener and mounts the stack's /metrics
// and /health on the default mux, which the net/http/pprof import already
// serves /debug/pprof/ on.
func listen(st *online.Stack, addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("binding metrics listener: %v", err)
	}
	http.Handle("/metrics", st.Metrics)
	http.Handle("/health", st.Health)
	return ln
}

// runTraceCmd implements the offline "chainmon trace" subcommands operating
// on a streamed binary log (plain, gzip-compressed, or rotated into
// segments — OpenLogSet reads all three transparently).
func runTraceCmd(args []string) {
	fail := func() {
		fmt.Fprintln(os.Stderr, "usage: chainmon trace convert <in.chmtrc> <out.json>")
		fmt.Fprintln(os.Stderr, "       chainmon trace report [-top N] <in.chmtrc>")
		fmt.Fprintln(os.Stderr, "       chainmon trace report -blame <in.chmtrc>")
		fmt.Fprintln(os.Stderr, "       chainmon trace report -diff [-diff-rel F] [-diff-abs D] [-diff-miss F] <old.chmtrc> <new.chmtrc>")
		os.Exit(2)
	}
	if len(args) < 2 {
		fail()
	}
	openLog := func(path string) *telemetry.Log {
		l, err := telemetry.OpenLogSet(path)
		if err != nil {
			log.Fatalf("reading trace stream: %v", err)
		}
		if l.Truncated {
			fmt.Fprintf(os.Stderr, "chainmon trace: warning: %s ends inside a record; reading the %d events before the cut\n", path, l.Events())
		}
		return l
	}
	switch args[0] {
	case "convert":
		if len(args) != 3 {
			fail()
		}
		l := openLog(args[1])
		writeFile(args[2], "trace JSON", l.WritePerfetto)
		fmt.Printf("%d events on %d tracks converted to %s\n", l.Events(), len(l.Tracks()), args[2])
	case "report":
		fs := flag.NewFlagSet("trace report", flag.ExitOnError)
		diffMode := fs.Bool("diff", false, "compare two logs and exit 1 when the new one regressed beyond the thresholds")
		diffRel := fs.Float64("diff-rel", 0, "allowed relative quantile growth (default 0.10)")
		diffAbs := fs.Duration("diff-abs", 0, "absolute quantile growth floor (default 1ms)")
		diffMiss := fs.Float64("diff-miss", 0, "allowed per-segment miss-fraction growth (default 0.01)")
		blameMode := fs.Bool("blame", false, "recompute the per-activation miss attribution from the log and print it as JSON (the same renderer as the run's /health blame section; the two are one level of indentation apart)")
		topN := fs.Int("top", 1, "keep the worst N activation paths per scope (same ordering as the blame engine's exemplar store)")
		fs.Parse(args[1:])
		rest := fs.Args()
		if *blameMode {
			if *diffMode || len(rest) != 1 {
				fail()
			}
			l := openLog(rest[0])
			eng := blame.FromLog(l, blame.Options{})
			doc := eng.Snapshot(blame.LogResolvers(l))
			os.Stdout.Write(append(doc.AppendJSON(nil, "", "  "), '\n'))
			return
		}
		if *diffMode {
			if len(rest) != 2 {
				fail()
			}
			oldRep := telemetry.BuildReport(openLog(rest[0]))
			newRep := telemetry.BuildReport(openLog(rest[1]))
			d := telemetry.DiffReports(oldRep, newRep, telemetry.DiffThresholds{
				RelFrac:  *diffRel,
				AbsNS:    *diffAbs,
				MissFrac: *diffMiss,
			})
			d.Write(os.Stdout)
			if len(d.Regressions()) > 0 {
				os.Exit(1)
			}
			return
		}
		if len(rest) != 1 {
			fail()
		}
		telemetry.BuildReportTop(openLog(rest[0]), *topN).Write(os.Stdout)
	default:
		fail()
	}
}

// printActuations summarizes the control loop's decisions after a run.
// baseNS is subtracted from the tick timestamps: zero for the simulation
// (virtual time already starts at zero), the run's start time on the wall
// clock (ticks are stamped with absolute unix nanos there).
func printActuations(w io.Writer, hist []adaptive.Actuation, baseNS int64) {
	counts := map[string]int{}
	for _, a := range hist {
		counts[a.Result]++
	}
	fmt.Fprintf(w, "\nadaptive budget loop: %d ticks (%d applied, %d held, %d infeasible, %d rollback)\n",
		len(hist), counts[adaptive.ResultApplied], counts[adaptive.ResultHeld],
		counts[adaptive.ResultInfeasible], counts[adaptive.ResultRollback])
	for _, a := range hist {
		if a.Result == adaptive.ResultHeld {
			continue
		}
		fmt.Fprintf(w, "  t=%-12v epoch=%d %-10s", time.Duration(a.AtNS-baseNS), a.Epoch, a.Result)
		for i := 0; i < a.DeadlinesNS.Len(); i++ {
			name, ns := a.DeadlinesNS.At(i)
			fmt.Fprintf(w, " %s=%v", name, time.Duration(ns))
		}
		if a.Reason != "" {
			fmt.Fprintf(w, "  (%s)", a.Reason)
		}
		fmt.Fprintln(w)
	}
}

// runOne builds the system for one configuration, runs it and writes the
// full report to w. A non-nil stack is wired into the system (single run
// only). The returned flag is false when a fault-campaign oracle
// cross-check failed.
func (rc *runConfig) runOne(cfg perception.Config, st *online.Stack, w io.Writer) bool {
	s := perception.Build(cfg)
	var sink *telemetry.Sink
	var ctrl *adaptive.Controller
	if st != nil {
		sink = st.Sink
		perception.AttachTelemetry(s, sink)
		perception.AttachLive(s, st.Live)
		if rc.adaptive {
			var err error
			if ctrl, err = st.ControlECU2(s, rc.adaptGuard, rc.adaptInterval); err != nil {
				log.Fatal(err)
			}
		}
	}
	var sup *monitor.Supervisor
	if cfg.FullChain {
		// System-level entity: derive an operating mode from the chain
		// windows (degrade on a violated window, safe-stop if it persists).
		sup = monitor.NewSupervisor(s.K, 5)
		sup.Watch(s.ChainFront)
		sup.Watch(s.ChainRear)
		sup.AttachTelemetry(sink)
	}
	var oracle *faultinject.Oracle
	if len(rc.camp.Faults) > 0 {
		if cfg.FullChain {
			// Wire the ground-truth oracle before the run so its raw hooks
			// observe every event; cross-check after the kernel ran dry.
			oracle = faultinject.ForPerception(s, rc.camp)
		}
		if err := faultinject.NewInjector(sim.NewRNG(cfg.Seed)).Apply(rc.camp, faultinject.TargetsOf(s)); err != nil {
			log.Fatalf("applying fault campaign: %v", err)
		}
		fmt.Fprintf(w, "fault campaign %q armed: %d faults\n", rc.camp.Name, len(rc.camp.Faults))
	}
	end := s.Run()

	fmt.Fprintf(w, "simulated %v of operation (%d frames at %v period)\n\n",
		sim.Duration(end), cfg.Frames, cfg.Period)

	fmt.Fprintln(w, "evaluation segments on ECU2:")
	for _, seg := range []*monitor.LocalSegment{s.SegObjects, s.SegGround} {
		stats := seg.Stats()
		fmt.Fprintf(w, "  %s\n", stats.Summary())
		fmt.Fprintf(w, "    %s\n", stats.Latencies().Tukey().DurationRow("latency"))
		if stats.Exceptions() > 0 {
			fmt.Fprintf(w, "    %s\n", stats.DetectionLatencies().Tukey().DurationRow("detection"))
		}
	}

	fmt.Fprintln(w, "\nmonitor overheads (simulated):")
	for _, row := range s.MonECU2.Overheads().Rows() {
		fmt.Fprintf(w, "  %s\n", row)
	}

	if ctrl != nil {
		printActuations(w, ctrl.History(), 0)
	}

	if cfg.FullChain {
		fmt.Fprintln(w)
		fmt.Fprint(w, s.ChainFront.Summary())
		fmt.Fprint(w, s.ChainRear.Summary())
		fmt.Fprintf(w, "\nsupervisor final mode: %v\n", sup.Mode())
		for _, ch := range sup.Changes() {
			fmt.Fprintf(w, "  %v  %v → %v (%s: %s)\n", ch.At, ch.From, ch.To, ch.Chain, ch.Reason)
		}
	}

	sound := true
	if oracle != nil {
		rep := oracle.Check()
		fmt.Fprintln(w, "\nground-truth oracle cross-check:")
		for _, sr := range rep.Segments {
			fmt.Fprintf(w, "  %s\n", sr)
		}
		if rep.Ok() {
			fmt.Fprintln(w, "  verdicts sound: no false negatives, exceptions within the ε-band")
		} else {
			for _, v := range rep.Violations {
				fmt.Fprintf(w, "  VIOLATION %s\n", v)
			}
			sound = false
		}
	}
	return sound
}

// export writes path with fn and reports it on stdout; an empty path skips
// the export.
func export(path, what string, fn func(w io.Writer) error) {
	if path != "" {
		writeFile(path, what, fn)
		fmt.Printf("%s written to %s\n", what, path)
	}
}

// writeFile creates path and writes it with fn.
func writeFile(path, what string, fn func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("creating %s file: %v", what, err)
	}
	if err := fn(f); err != nil {
		f.Close()
		log.Fatalf("writing %s: %v", what, err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("closing %s file: %v", what, err)
	}
}

// writeTrace records an unmonitored run of the same scenario and writes the
// trace for cmd/budgetsolve.
func writeTrace(path string, cfg perception.Config) {
	cfg.Monitored = false
	cfg.FullChain = false
	cfg.Handlers = nil
	s := perception.Build(cfg)
	rec := s.RecordTrace()
	s.Run()
	writeFile(path, "trace", rec.Trace().WriteJSON)
	fmt.Printf("\nunmonitored trace written to %s\n", path)
}

// runRealtime executes the wall-clock scenario. Unlike the simulation path,
// the metrics endpoint is bound *before* the run starts and serves the live
// registry while frames are still in flight; the process exits once the run
// and the final exports are done. With -trace-stream the producers and the
// monitor goroutine append to lock-free rings and a drainer goroutine writes
// the log: bounded memory regardless of run length, drops counted in
// chainmon_stream_dropped_total.
func runRealtime(rc *runConfig) {
	st := rc.newStack("wall")
	cfg := rc.rt
	cfg.Live = st.Live

	var ctrl *adaptive.Controller
	if rc.adaptive {
		// Both segments start at the deadline and are clamped to
		// [1 ms, period − 1 ms]; the (m,k) constraint matches the budget
		// realtime.Run installs on its segments.
		cfg.Budget = monitor.NewBudgetTable()
		var specs []adaptive.SegmentSpec
		for _, name := range []string{realtime.SegObjects, realtime.SegGround} {
			specs = append(specs, adaptive.SegmentSpec{Name: name, Propagation: 1,
				Initial: cfg.Deadline, Min: time.Millisecond, Max: cfg.Period - time.Millisecond})
		}
		var err error
		ctrl, err = adaptive.New(adaptive.Config{
			Set: st.Live, Table: cfg.Budget, Chain: "rt", Segments: specs,
			DEx: time.Millisecond, Be2e: 2 * cfg.Period, Constraint: weaklyhard.Constraint{M: 1, K: 5},
			Guard: adaptive.Guardrails{Hysteresis: rc.adaptGuard}, Sink: st.Sink,
		})
		if err != nil {
			log.Fatalf("building adaptive controller: %v", err)
		}
	}

	if rc.metricsAddr != "" {
		ln := listen(st, rc.metricsAddr)
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				log.Printf("metrics server stopped: %v", err)
			}
		}()
		fmt.Printf("serving live metrics on http://%s/metrics (+ /health, /debug/pprof/)\n", ln.Addr())
	}

	stopCtrl := func() {}
	startNS := time.Now().UnixNano()
	if ctrl != nil {
		stopCtrl = ctrl.StartWall(rc.adaptInterval)
	}
	res, err := realtime.Run(cfg, st.Sink)
	stopCtrl()
	if err != nil {
		log.Fatalf("wall-clock run failed: %v", err)
	}
	rc.closeStack(st)
	res.Summary(os.Stdout)
	if ctrl != nil {
		printActuations(os.Stdout, ctrl.History(), startNS)
	}
	export(rc.metricsOut, "metrics", st.Sink.WriteMetrics)
}
