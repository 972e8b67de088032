// Command bench emits the repo's performance trajectory as machine-readable
// JSON (BENCH_parallel.json in CI). It covers the two axes of the parallel
// engine work:
//
//   - hot-path allocation cuts: kernel event scheduling on the recycled
//     freelist, the overload queue-churn workload (work-item freelist
//     and pre-bound wakers), the deadline hot-swap cycle of the adaptive
//     budget loop (budget_swap), one wall-clock monitor wake-up at its
//     deadline (loop_wake), one activation through a wall-clock monitor
//     segment (wall_activation), one blame-attributed flow (blame_flow), a
//     /health scrape with a full budget history (health_render), one
//     /health and one /metrics scrape of a mid-run full stack
//     (scrape_pair), one 120-frame vehicle built only (vehicle_build),
//     built and run bare (vehicle_run) and with blame on (blame_vehicle),
//     and the sweep-framework overhead per combo, all measured via
//     testing.Benchmark;
//   - parallel campaign throughput: the frozen 102-combo chaos matrix (or
//     the 10k nightly matrix with -matrix 10k) run serially and through the
//     sharded worker pool, with the merged summaries byte-compared so the
//     speedup number is only reported for identical output, plus the
//     measured heap allocations per combo;
//   - fleet sweep throughput: a 64-vehicle jittered fleet run serially and
//     through the pool, with the rendered fleet summary byte-compared the
//     same way.
//
// The speedup is only meaningful on a multi-core host; the JSON therefore
// records num_cpu and go_max_procs so a reader can tell a 1-CPU container
// result (speedup ≈ 1×) from a real parallel run.
//
// With -baseline FILE the run compares itself against a previous report and
// exits non-zero on regression: any allocs/op increase on a named benchmark
// fails unconditionally (allocation counts are machine-independent), and
// ns/op regressions beyond -gate-ns fail when the fraction is positive
// (wall-clock gating only makes sense against a baseline from the same
// machine class, e.g. night-over-night CI artifacts — leave it 0 across
// machines). A baseline row missing from the run fails too. The baseline is
// read, and one of another schema version refused, before the first row
// runs, so -out may name the baseline file itself.
//
// Usage:
//
//	bench [-workers N] [-out BENCH_parallel.json] [-quick] [-matrix 102|10k]
//	      [-baseline FILE] [-gate-ns FRAC]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"chainmon/internal/adaptive"
	"chainmon/internal/blame"
	"chainmon/internal/faultinject"
	"chainmon/internal/fleet"
	"chainmon/internal/livestats"
	"chainmon/internal/monitor"
	"chainmon/internal/online"
	"chainmon/internal/parallel"
	"chainmon/internal/perception"
	rt "chainmon/internal/runtime"
	"chainmon/internal/runtime/walltime"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
	"chainmon/internal/weaklyhard"
)

// schemaVersion identifies the report layout; bump it when fields change
// incompatibly so downstream consumers (the CI gate) can refuse mismatches.
const schemaVersion = 2

type benchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type sweepResult struct {
	Matrix          string  `json:"matrix"`
	Combos          int     `json:"combos"`
	Workers         int     `json:"workers"`
	SerialNs        int64   `json:"serial_ns"`
	ParallelNs      int64   `json:"parallel_ns"`
	Speedup         float64 `json:"speedup"`
	IdenticalOutput bool    `json:"identical_output"`
	// AllocsPerCombo is the measured heap-allocation count per combo of the
	// serial leg (runtime.MemStats.Mallocs delta / combos). Each combo still
	// deliberately builds its own simulation from the seed — determinism —
	// so this is O(build) per combo; the gateable property is that it does
	// not grow with the matrix size (the sweep framework itself is O(1), see
	// the sweep_framework benchmark row).
	AllocsPerCombo float64 `json:"sweep_allocs_per_combo"`
}

type fleetSweepResult struct {
	Vehicles        int     `json:"vehicles"`
	Frames          int     `json:"frames"`
	Workers         int     `json:"workers"`
	SerialNs        int64   `json:"serial_ns"`
	ParallelNs      int64   `json:"parallel_ns"`
	Speedup         float64 `json:"speedup"`
	IdenticalOutput bool    `json:"identical_output"`
}

type report struct {
	SchemaVersion int              `json:"schema_version"`
	GoVersion     string           `json:"go_version"`
	NumCPU        int              `json:"num_cpu"`
	GoMaxProcs    int              `json:"go_max_procs"`
	Benchmarks    []benchRow       `json:"benchmarks"`
	Sweep         sweepResult      `json:"sweep,omitempty"`
	FleetSweep    fleetSweepResult `json:"fleet_sweep,omitempty"`
}

// matrices maps each -matrix value to its combo list.
var matrices = map[string]func() []faultinject.Combo{
	"102": faultinject.Matrix102,
	"10k": faultinject.Matrix10K,
}

func main() {
	workers := flag.Int("workers", 4, "worker pool size for the parallel sweep leg")
	out := flag.String("out", "BENCH_parallel.json", "output JSON path (- for stdout)")
	quick := flag.Bool("quick", false, "benchmark rows only: skip the sweep and fleet legs")
	matrix := flag.String("matrix", "102", "sweep matrix: 102 (frozen reference) or 10k (nightly)")
	baseline := flag.String("baseline", "", "previous report JSON to gate against (empty: no gate)")
	gateNs := flag.Float64("gate-ns", 0, "fail when ns/op regresses beyond this fraction (0: allocs-only gate)")
	flag.Parse()

	// -matrix is resolved before the first row, also under -quick, which
	// never reaches the sweep: a bad value must not pass silently.
	matrixCombos, ok := matrices[*matrix]
	if !ok {
		log.Fatalf("unknown -matrix %q (want 102 or 10k)", *matrix)
	}
	// The baseline is read before the first row runs: -out may name the
	// same file, and the gate must compare against what was committed.
	var base *report
	if *baseline != "" {
		b, err := readReport(*baseline)
		if err != nil {
			log.Fatalf("gate: %v", err)
		}
		base = &b
	}

	rep := report{
		SchemaVersion: schemaVersion,
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
	}

	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		rep.Benchmarks = append(rep.Benchmarks, benchRow{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%-24s %10.1f ns/op  %3d allocs/op  %4d B/op\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp(), r.AllocedBytesPerOp())
	}

	// Hot-path allocation cuts: a self-rescheduling tick, whose event
	// comes off the kernel's freelist after the first lap.
	run("EventSchedule", func(b *testing.B) {
		b.ReportAllocs()
		k := sim.NewKernel()
		n := 0
		var tick sim.EventFunc
		tick = func() {
			if n++; n < b.N {
				k.After(100, tick)
			}
		}
		b.ResetTimer()
		k.After(100, tick)
		k.Run()
	})
	// queue_churn is the overload-campaign event pattern (periodic chain work
	// plus a near-saturating service on a 2-core processor): enqueue, wakeup,
	// dispatch, preemption and completion per kernel step. The zero-alloc
	// gate in internal/sim pins this workload at 0 allocs/op.
	run("queue_churn", func(b *testing.B) {
		b.ReportAllocs()
		k := sim.NewKernel()
		rng := sim.NewRNG(1)
		proc := sim.NewProcessor(k, rng, "ecu", 2)
		work := proc.NewThread("chain", 100)
		svc := proc.NewThread("svc", 50)
		proc.PeriodicLoad(work, "frame", 0, 100*sim.Millisecond,
			sim.NormalDist{Mean: 8 * sim.Millisecond, Stddev: sim.Millisecond, Min: sim.Millisecond})
		proc.PeriodicLoad(svc, "busy", 0, sim.Millisecond,
			sim.UniformDist{Lo: 600 * sim.Microsecond, Hi: 900 * sim.Microsecond})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !k.Step() {
				b.Fatal("queue drained")
			}
		}
	})
	// budget_swap is the deadline hot-swap cycle of the adaptive budget
	// loop, swapped the way monitor.BudgetTable applies a version: one op
	// arms 64 pending timeouts, shrinks the segment deadline and grows it
	// back on the scan thread (a barrier: the armed timeouts keep their
	// deadlines), then resolves the batch and prunes the stale heap
	// entries. TestSwapAllocFree in internal/runtime pins this cycle at 0
	// allocs/op; the row tracks its wall cost alongside the other hot-path
	// cuts.
	run("budget_swap", func(b *testing.B) {
		b.ReportAllocs()
		c := rt.NewCore()
		s := c.AddSegment("s", 10*time.Millisecond, &rt.SliceRing{}, &rt.SliceRing{}, rt.SegmentHooks{})
		now := rt.Time(0)
		act := uint64(0)
		cycle := func() {
			for i := 0; i < 64; i++ {
				act++
				s.StartRing().Post(rt.Event{Act: act, TS: now})
			}
			c.Scan(now)
			c.SetDeadline(s, 2*time.Millisecond)
			c.SetDeadline(s, 10*time.Millisecond)
			for a := act - 63; a <= act; a++ {
				s.EndRing().Post(rt.Event{Act: a, TS: now.Add(time.Millisecond)})
			}
			now = now.Add(time.Millisecond)
			c.Scan(now)
			now = now.Add(30 * time.Millisecond)
			c.Scan(now)
		}
		cycle() // warm the timeout pool before the timer starts
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	})
	// loop_wake is the wall-clock monitor's wake-up: one op is one loop
	// pass, armed 200 µs after the previous pass started, so ns/op is
	// 200 µs plus how late the loop wakes for its deadline (the timer slack
	// of its sem_timedwait). A loop woken by a Go timer reads about 1.1 ms.
	run("loop_wake", func(b *testing.B) {
		b.ReportAllocs()
		clock := walltime.NewClock()
		loop := walltime.NewLoop(clock, walltime.NewSem())
		var next rt.Time
		passes, done := 0, make(chan struct{})
		loop.Next = func() (rt.Time, bool) { return next, true }
		loop.Scan = func() {
			next = clock.Now().Add(200 * time.Microsecond)
			if passes++; passes == b.N {
				close(done)
			}
		}
		b.ResetTimer()
		loop.Start()
		<-done
		b.StopTimer()
		loop.Stop()
	})
	// wall_activation is one activation through a wall-clock monitor
	// segment on a clock the op advances by hand: start post, end post and
	// a monitor pass, with every 50th end withheld so its deadline fires
	// ten activations later. Its B/op is what an activation allocates in
	// steady state: a segment that kept each verdict and drain latency, as
	// the sim's do, read ~500 B/op from growing those slices.
	run("wall_activation", func(b *testing.B) {
		b.ReportAllocs()
		clock := &stepClock{}
		mon := monitor.NewWallclockMonitor(clock, nopWaker{},
			func() rt.EventRing { return walltime.NewRing(16) }, 1)
		seg := mon.AddSegment(monitor.SegmentConfig{Name: "wall", DMon: time.Millisecond, Period: time.Millisecond})
		var act uint64
		activation := func() {
			seg.StartInjected(act)
			clock.now += rt.Time(20 * time.Microsecond)
			if act%50 != 49 {
				seg.EndInjected(act)
			}
			act++
			clock.now += rt.Time(80 * time.Microsecond)
			mon.ScanNow()
		}
		for i := 0; i < 20_000; i++ { // warm past the segment's bookkeeping horizon
			activation()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			activation()
		}
	})
	// blame_flow is the attribution engine's per-activation cost: one op
	// feeds an on-time flow's six hops (dds-send, net-send, dds-recv, ring
	// post, timeout arm, verdict) and finalizes the flow that falls out of
	// the reorder window. TestFeedAllocFree in internal/blame pins it at 0
	// allocs/op.
	run("blame_flow", func(b *testing.B) {
		b.ReportAllocs()
		e := blame.New(blame.Options{})
		act := uint64(0)
		flow := func() {
			act++
			f, ts := telemetry.FlowID(1, act), int64(act)*100_000
			for i, k := range []telemetry.Kind{
				telemetry.KindDDSSend, telemetry.KindNetSend, telemetry.KindDDSRecv, telemetry.KindRingPostStart,
			} {
				e.Feed(0, telemetry.Event{TS: ts + int64(i)*1000, Act: act, Flow: f, Kind: k, Label: 1})
			}
			e.Feed(1, telemetry.Event{TS: ts + 3000, Act: act, Arg: ts + 23000, Flow: f,
				Kind: telemetry.KindTimeoutArm, Label: 1})
			e.Feed(1, telemetry.Event{TS: ts + 13000, Act: act, Arg: 10000, Flow: f,
				Kind: telemetry.KindVerdict, Label: 1, Status: telemetry.StatusOK})
		}
		for i := 0; i < 2*blame.DefaultWindow; i++ { // warm the freelist and aggregates
			flow()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flow()
		}
	})
	// health_render is one /health scrape through the live handler with the
	// adaptive budget section carrying its full 256-actuation history, the
	// document's largest part. An untimed first scrape renders each
	// actuation; the timed ones copy those renderings, which
	// TestBudgetHealthAllocs in internal/adaptive pins at 0 allocations.
	run("health_render", func(b *testing.B) {
		b.ReportAllocs()
		set := livestats.NewSet(0)
		for _, name := range []string{"objects", "ground"} {
			sc := set.Segment(name, weaklyhard.Constraint{M: 1, K: 10})
			for i := 0; i < 1000; i++ {
				sc.Observe(float64(5_000_000+i*1000), false)
			}
		}
		ctrl, err := adaptive.New(adaptive.Config{
			Set: set, Table: monitor.NewBudgetTable(),
			Segments: []adaptive.SegmentSpec{
				{Name: "objects", Initial: 10 * sim.Millisecond},
				{Name: "ground", Initial: 10 * sim.Millisecond},
			},
			DEx: sim.Millisecond, Be2e: 40 * sim.Millisecond,
			Constraint: weaklyhard.Constraint{M: 1, K: 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			ctrl.Tick(int64(i) * int64(sim.Second))
		}
		h, req := set.Handler(), httptest.NewRequest(http.MethodGet, "/health", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Body.Reset()
			h.ServeHTTP(w, req)
		}
	})
	// scrape_pair is one /health + /metrics scrape of a full stack stopped
	// half way through a 3000-frame run (seed 1, 150 s of history): every
	// online layer attached, blame section, budget history and all. An
	// untimed first scrape binds every /metrics row and renders every
	// retained actuation, as the previous scrape of a live run has.
	health, metrics, err := midRunStack(1, 1500)
	if err != nil {
		log.Fatal(err)
	}
	run("scrape_pair", func(b *testing.B) {
		b.ReportAllocs()
		w, req := discard{http.Header{}}, httptest.NewRequest(http.MethodGet, "/", nil)
		scrape := func() {
			health.ServeHTTP(w, req)
			metrics.ServeHTTP(w, req)
		}
		scrape()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scrape()
		}
	})
	// vehicle_build is the build half of vehicle_run: one op builds the
	// same 120-frame full-chain vehicle and does not run it, so the rows
	// split a vehicle's cost into build and run. Most of its ~120 KB per op
	// is the generator state of its 18 RNGs, 5 KB each.
	run("vehicle_build", func(b *testing.B) {
		b.ReportAllocs()
		cfg := perception.DefaultConfig()
		cfg.Frames = 120
		cfg.FullChain = true
		for i := 0; i < b.N; i++ {
			perception.Build(cfg)
		}
	})
	// vehicle_run is the unit of the fleet_chaos benchmark: build and run
	// one 120-frame full-chain vehicle (default scenario, no faults). Its
	// allocs/op is the per-vehicle allocation budget of the simulated
	// message path — publish, link, receive stages, monitor bookkeeping —
	// plus the scenario build, gated against the baseline like every row.
	// Each op leaves ~420 KB of garbage, so the count also carries the Go
	// runtime's own per-GC allocations: 0.25–0.4 per op at the default
	// GOGC (measured at GOMAXPROCS 1, 2 and 4), which the integer allocs/op
	// truncates away. Gate it at the default GOGC; GOGC=25 reads one more.
	run("vehicle_run", func(b *testing.B) {
		b.ReportAllocs()
		cfg := perception.DefaultConfig()
		cfg.Frames = 120
		cfg.FullChain = true
		for i := 0; i < b.N; i++ {
			perception.Build(cfg).Run()
		}
	})
	// blame_vehicle is vehicle_run with blame on, wired the way a fleet
	// -blame vehicle is: a private online stack without a log whose flight
	// recorder feeds the blame engine, settled and summarized after the
	// run. Its B/op is the memory the recorder and blame add per vehicle;
	// a track holds only the 32 KiB chunks it has written into. A
	// collection before each op, off the clock, keeps the op's ~1.3 MB
	// under the heap goal, so no cycle runs inside it: the runtime's own
	// per-cycle allocations, about one per op here, would otherwise tip the
	// integer allocs/op between GOMAXPROCS values.
	run("blame_vehicle", func(b *testing.B) {
		b.ReportAllocs()
		cfg := perception.DefaultConfig()
		cfg.Frames = 120
		cfg.FullChain = true
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			s := perception.Build(cfg)
			st, _ := online.New("sim", nil, nil) // only opening a log can fail
			perception.AttachTelemetry(s, st.Sink)
			s.Run()
			st.Blame.Flush()
			st.Blame.Summarize(blame.RecorderResolvers(st.Sink.Rec))
		}
	})
	// sweep_framework isolates the sweep machinery from the combos: one op is
	// an arena-sharded MapSliceArena walk over the full 102-combo list with a
	// no-op worker, so allocs/op is the framework's total allocation budget
	// for an entire sweep (results slice + one arena) — a fraction of an
	// allocation per combo, independent of matrix size.
	run("sweep_framework", func(b *testing.B) {
		b.ReportAllocs()
		combos := faultinject.Matrix102()
		sink := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got := parallel.MapSliceArena(1, combos, faultinject.NewSweepArena,
				func(a *faultinject.SweepArena, shard int, c faultinject.Combo) int {
					return len(c.Campaign.Name)
				})
			sink += got[0]
		}
		_ = sink
	})

	defer func() {
		if err := finish(os.Stderr, rep, *out, base, *gateNs); err != nil {
			log.Fatal(err)
		}
	}()

	if *quick {
		return
	}

	// Campaign throughput on the selected matrix.
	combos := matrixCombos()
	fmt.Fprintf(os.Stderr, "sweep: matrix %s, %d combos, serial vs %d workers (GOMAXPROCS=%d)\n",
		*matrix, len(combos), *workers, runtime.GOMAXPROCS(0))

	timeSweep := func(w int) (time.Duration, string) {
		start := time.Now()
		items := faultinject.RunSweep(combos, w)
		elapsed := time.Since(start)
		for _, it := range items {
			if it.Err != nil {
				log.Fatalf("sweep %s: %v", it.Combo, it.Err)
			}
		}
		return elapsed, faultinject.MergedSummary(items)
	}
	// Warm up once so neither leg pays first-run costs, then measure. The
	// serial leg doubles as the allocation measurement: Mallocs delta over
	// the run divided by the combo count.
	timeSweep(1)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	serialT, serialOut := timeSweep(1)
	runtime.ReadMemStats(&ms1)
	parT, parOut := timeSweep(*workers)

	rep.Sweep = sweepResult{
		Matrix:          *matrix,
		Combos:          len(combos),
		Workers:         *workers,
		SerialNs:        serialT.Nanoseconds(),
		ParallelNs:      parT.Nanoseconds(),
		Speedup:         float64(serialT.Nanoseconds()) / float64(parT.Nanoseconds()),
		IdenticalOutput: serialOut == parOut,
		AllocsPerCombo:  float64(ms1.Mallocs-ms0.Mallocs) / float64(len(combos)),
	}
	if !rep.Sweep.IdenticalOutput {
		log.Fatal("parallel sweep output differs from serial — determinism broken, refusing to report a speedup")
	}
	fmt.Fprintf(os.Stderr, "sweep: serial %v, parallel %v, speedup %.2fx, %.0f allocs/combo, identical output\n",
		serialT, parT, rep.Sweep.Speedup, rep.Sweep.AllocsPerCombo)

	// Fleet sweep: the same serial-vs-parallel shape on the fleet layer —
	// N jittered vehicle sims sharded over the pool, with the rendered fleet
	// summary byte-compared so the speedup is only reported for
	// deterministic output.
	const fleetVehicles, fleetFrames = 64, 60
	fleetBase := perception.DefaultConfig()
	fleetBase.Frames = fleetFrames
	fleetCfg := fleet.Config{
		Size: fleetVehicles, Seed: 1, Jitter: fleet.Uniform(0.1), Base: fleetBase,
	}
	fmt.Fprintf(os.Stderr, "fleet sweep: %d vehicles × %d frames, serial vs %d workers\n",
		fleetVehicles, fleetFrames, *workers)
	timeFleet := func(w int) (time.Duration, string) {
		c := fleetCfg
		c.Workers = w
		start := time.Now()
		res, err := fleet.Run(c)
		elapsed := time.Since(start)
		if err != nil {
			log.Fatalf("fleet sweep: %v", err)
		}
		if errs := res.Errs(); len(errs) > 0 {
			log.Fatalf("fleet sweep: %d vehicles failed: %+v", len(errs), errs)
		}
		var buf bytes.Buffer
		buf.WriteString(res.Summary())
		if err := res.WriteJSON(&buf); err != nil {
			log.Fatalf("fleet sweep: %v", err)
		}
		return elapsed, buf.String()
	}
	timeFleet(1)
	fleetSerialT, fleetSerialOut := timeFleet(1)
	fleetParT, fleetParOut := timeFleet(*workers)
	rep.FleetSweep = fleetSweepResult{
		Vehicles:        fleetVehicles,
		Frames:          fleetFrames,
		Workers:         *workers,
		SerialNs:        fleetSerialT.Nanoseconds(),
		ParallelNs:      fleetParT.Nanoseconds(),
		Speedup:         float64(fleetSerialT.Nanoseconds()) / float64(fleetParT.Nanoseconds()),
		IdenticalOutput: fleetSerialOut == fleetParOut,
	}
	if !rep.FleetSweep.IdenticalOutput {
		log.Fatal("parallel fleet output differs from serial — determinism broken, refusing to report a speedup")
	}
	fmt.Fprintf(os.Stderr, "fleet sweep: serial %v, parallel %v, speedup %.2fx, identical output\n",
		fleetSerialT, fleetParT, rep.FleetSweep.Speedup)
}

// finish writes rep to out ("-" for stdout) and, with a baseline, gates rep
// against it. It logs the gate's findings to w and returns an error naming
// every failing row.
func finish(w io.Writer, rep report, out string, base *report, gateNs float64) error {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", out)
	}
	if base == nil {
		return nil
	}
	var failed []string
	for _, f := range gate(rep, *base, gateNs) {
		fmt.Fprintln(w, "gate:", f)
		if f.fail {
			failed = append(failed, f.name+": "+f.msg)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("gate: benchmark regression against baseline: %s", strings.Join(failed, "; "))
	}
	fmt.Fprintln(w, "gate: no regression against baseline")
	return nil
}

// readReport reads a report written by a previous run and refuses one of
// another schema version.
func readReport(path string) (report, error) {
	var rep report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("read baseline: %w", err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if rep.SchemaVersion != schemaVersion {
		return rep, fmt.Errorf("baseline %s has schema version %d, this report's is %d",
			path, rep.SchemaVersion, schemaVersion)
	}
	return rep, nil
}

// finding is the gate's verdict on one row.
type finding struct {
	name string
	fail bool
	msg  string
}

func (f finding) String() string { return fmt.Sprintf("%-24s %s", f.name, f.msg) }

// gate compares the fresh report against a baseline of the same schema
// version (readReport checks it) and returns one finding per row. Each
// baseline row the fresh report lacks fails: a deleted or renamed row must
// not drop out of the gate unnoticed. A fresh row without a baseline is
// skipped. Allocation counts gate strictly — they are deterministic and
// machine-independent. Wall-clock gates only when gateNs is positive, at
// that relative tolerance.
func gate(rep, base report, gateNs float64) []finding {
	byName := make(map[string]benchRow, len(base.Benchmarks))
	for _, row := range base.Benchmarks {
		byName[row.Name] = row
	}
	var out []finding
	for _, row := range rep.Benchmarks {
		prev, ok := byName[row.Name]
		delete(byName, row.Name)
		switch {
		case !ok:
			out = append(out, finding{row.Name, false, "no baseline row, skipping"})
		case row.AllocsPerOp > prev.AllocsPerOp:
			out = append(out, finding{row.Name, true,
				fmt.Sprintf("FAIL allocs/op %d -> %d", prev.AllocsPerOp, row.AllocsPerOp)})
		case gateNs > 0 && prev.NsPerOp > 0 && row.NsPerOp > prev.NsPerOp*(1+gateNs):
			out = append(out, finding{row.Name, true,
				fmt.Sprintf("FAIL ns/op %.1f -> %.1f (>%.0f%%)", prev.NsPerOp, row.NsPerOp, gateNs*100)})
		default:
			out = append(out, finding{row.Name, false,
				fmt.Sprintf("ok (allocs %d<=%d, %.1f ns/op vs %.1f)", row.AllocsPerOp, prev.AllocsPerOp, row.NsPerOp, prev.NsPerOp)})
		}
	}
	for _, row := range base.Benchmarks {
		if _, missing := byName[row.Name]; missing {
			out = append(out, finding{row.Name, true, "FAIL baseline row missing from this report"})
		}
	}
	return out
}

// stepClock is a wall clock the wall_activation row advances by hand.
type stepClock struct{ now rt.Time }

func (c *stepClock) Now() rt.Time { return c.now }

// nopWaker stands in for the monitor semaphore; the row calls ScanNow.
type nopWaker struct{}

func (nopWaker) Wake()      {}
func (nopWaker) ForceWake() {}
