// Command perfbench is the repository benchmark: seeded workloads that drive
// the chainmon layers through their public calls and print one JSON result
// line. See README.md for the workloads, the metrics and how to run them.
//
//	perfbench --workload perception_live --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec names one metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the untraced metrics every workload reports; README.md maps
// each to its per-workload definition.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"latency_us_p50", "us"},
	{"heap_mb", "MB"},
}

// perLayer are the traced metrics. Every traced run reports all of them; a
// layer the workload does not exercise reads 0.
var perLayer = []spec{
	// every workload: the machine-speed index of the run (see calib.go)
	{"machine.ref_pass_ms", "ms"},
	// perception_live
	{"perception.frames_per_s", "1/s"},
	{"perception.allocs_per_frame", "count"},
	{"perception.replay_events_per_s", "1/s"},
	{"perception.build_ms", "ms"},
	{"sim.ns_per_frame", "ns"},
	{"sim.allocs_per_frame", "count"},
	{"sim.kernel_heap_ops_per_frame", "count"},
	{"sim.heap_inuse_mb", "MB"},
	{"monitor.ns_per_frame", "ns"},
	{"monitor.allocs_per_frame", "count"},
	{"monitor.resolutions_per_frame", "count"},
	{"monitor.exceptions_per_frame", "count"},
	{"telemetry.recorder_ns_per_frame", "ns"},
	{"telemetry.recorder_allocs_per_frame", "count"},
	{"telemetry.stream_ns_per_frame", "ns"},
	{"telemetry.stream_allocs_per_frame", "count"},
	{"telemetry.stream_bytes_per_frame", "B"},
	{"telemetry.stream_dropped", "count"},
	{"livestats.ns_per_frame", "ns"},
	{"livestats.allocs_per_frame", "count"},
	{"blame.ns_per_frame", "ns"},
	{"blame.allocs_per_frame", "count"},
	{"adaptive.ns_per_frame", "ns"},
	{"adaptive.allocs_per_frame", "count"},
	{"adaptive.ticks", "count"},
	{"adaptive.applied", "count"},
	{"livestats.health_render_us_p50", "us"},
	{"telemetry.metrics_render_us_p50", "us"},
	{"telemetry.read_ms", "ms"},
	{"telemetry.report_ms", "ms"},
	{"blame.replay_ms", "ms"},
	// wall_monitor
	{"monitor.post_ns_p50", "ns"},
	{"monitor.post_ns_p99", "ns"},
	{"monitor.detect_us_p50", "us"},
	{"monitor.detect_us_p99", "us"},
	{"monitor.cpu_share", "fraction"},
	{"monitor.late_ok", "count"},
	{"monitor.retained_bytes_per_activation", "B"},
	{"runtime.scan_us_p50", "us"},
	{"runtime.scan_us_p99", "us"},
	{"runtime.scans_per_s", "1/s"},
	{"walltime.oversleep_us_p50", "us"},
	{"walltime.oversleep_us_p99", "us"},
	{"generator.lateness_us_p50", "us"},
	{"generator.lateness_us_p99", "us"},
	// fleet_chaos
	{"fleet.vehicles_per_s", "1/s"},
	{"fleet.render_ms", "ms"},
	{"perception.build_us_per_vehicle", "us"},
	{"perception.build_allocs_per_vehicle", "count"},
	{"faultinject.wire_us_per_vehicle", "us"},
	{"faultinject.check_us_per_vehicle", "us"},
	{"sim.run_ms_per_vehicle", "ms"},
	{"sim.run_allocs_per_vehicle", "count"},
	{"parallel.busy_share", "fraction"},
	{"parallel.worker_skew", "ratio"},
}

// workload is one entry point; it measures for the given wall-clock budget
// and fills the outcome.
type workload func(seed int64, budget time.Duration, traced bool, out *outcome) error

var workloads = map[string]workload{
	"perception_live": perceptionLive,
	"wall_monitor":    wallMonitor,
	"fleet_chaos":     fleetChaos,
}

// outcome collects one run's counts, metrics and correctness findings.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	problems          []string
	// notes are human-readable lines (sample counts, findings) for stderr.
	notes []string
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setPct reports the q-quantile of d as name; an end-to-end percentile
// that cannot be reported fails the run.
func (o *outcome) setPct(name string, d dist, q, scale float64) {
	if err := o.tryPct(name, d, q, scale); err != nil {
		o.fail("%v", err)
	}
}

// tryPct reports the q-quantile of d as name with its sample count, or
// leaves the metric at 0 and notes why it was refused.
func (o *outcome) tryPct(name string, d dist, q, scale float64) error {
	v, err := d.pct(q)
	if err != nil {
		o.note("%s not reported: %v", name, err)
		return err
	}
	o.set(name, v*scale)
	o.note("%s = %.4g over %d samples", name, v*scale, d.n())
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: perception_live, wall_monitor or fleet_chaos")
	seed := flag.Int64("seed", 1, "seed every generated input is derived from")
	seconds := flag.Int("seconds", 10, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (perception_live, wall_monitor, fleet_chaos), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	// Pin the worker count so a larger host measures the same shape.
	runtime.GOMAXPROCS(2)

	traced := *trace == 1
	out := &outcome{values: map[string]float64{}}
	if err := run(*seed, time.Duration(*seconds)*time.Second, traced, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	want := endToEnd
	if traced {
		want = perLayer
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range want {
		v, ok := out.values[m.name]
		if !ok && !traced {
			res.Correct = false
			out.problems = append(out.problems, "end-to-end metric "+m.name+" was not measured")
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		out.problems = append(out.problems, "no operation was attempted")
	}

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-42s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED: "+p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
