package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"chainmon/internal/faultinject"
)

func TestWallScheduleIsSeedPure(t *testing.T) {
	a, b := wallSchedule(7, 400*time.Millisecond), wallSchedule(7, 400*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different wall plans")
	}
	c := wallSchedule(8, 400*time.Millisecond)
	if reflect.DeepEqual(a.events, c.events) {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	if reflect.DeepEqual(a.kind, c.kind) {
		t.Error("seeds 7 and 8 gave the same late set")
	}
}

func TestWallScheduleShape(t *testing.T) {
	p := wallSchedule(3, time.Second)
	if got, want := len(p.events), 2*p.acts*wallSegments; got != want {
		t.Fatalf("%d events, want %d", got, want)
	}
	if !sort.SliceIsSorted(p.events, func(i, j int) bool { return p.events[i].due < p.events[j].due }) {
		t.Error("events are not in due order")
	}
	started := make([]map[uint32]int64, wallSegments)
	for i := range started {
		started[i] = map[uint32]int64{}
	}
	for _, ev := range p.events {
		if !ev.end {
			started[ev.seg][ev.act] = ev.due
			continue
		}
		start, ok := started[ev.seg][ev.act]
		if !ok {
			t.Fatalf("segment %d activation %d ends before it starts", ev.seg, ev.act)
		}
		work := time.Duration(ev.due - start)
		switch p.kind[ev.seg][ev.act] {
		case onTime:
			if work < wallMinWork || work >= wallDMon/2 {
				t.Errorf("on-time work %v outside [%v, %v)", work, wallMinWork, wallDMon/2)
			}
		case edgeLate:
			if work != wallDMon+wallEdgeMargin {
				t.Errorf("edge-late work %v", work)
			}
		case clearLate:
			if work != wallDMon+wallClearMargin {
				t.Errorf("clear-late work %v", work)
			}
		}
	}
	for seg := range p.kind {
		if p.kind[seg][0] != onTime {
			t.Errorf("segment %d: the first activation is late", seg)
		}
	}
	share := float64(p.edge+p.clear) / float64(p.acts*wallSegments)
	if share < 0.01 || share > 0.03 {
		t.Errorf("late share %.4f, want about %.2f", share, wallEdgeShare+wallClearShare)
	}
}

func TestFleetMixIsSeedPure(t *testing.T) {
	a, b, c := fleetMixNames(7), fleetMixNames(7), fleetMixNames(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different mixes")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same mix order")
	}
	want := []string{"nominal"}
	for _, e := range faultinject.AllCampaigns() {
		want = append(want, e.Campaign.Name)
	}
	got := append([]string(nil), a...)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mix %v is not nominal plus every campaign once (%v)", got, want)
	}
	if len(want) != 13 {
		t.Errorf("%d mix slots, want nominal + 12 campaigns", len(want))
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(n - i) // unsorted on purpose
		}
		return vs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0: refused
	}{
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{0, 0.5, 0},
	} {
		d := newDist("x", seq(c.n))
		if d.n() != c.n {
			t.Errorf("n=%d: sample count %d", c.n, d.n())
		}
		v, err := d.pct(c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("n=%d p%g = %g, want a refusal", c.n, 100*c.q, v)
			}
			continue
		}
		if err != nil || v != c.want {
			t.Errorf("n=%d p%g = %g, %v; want %g", c.n, 100*c.q, v, err, c.want)
		}
	}
}

func TestOutcomeReportsRefusedPercentiles(t *testing.T) {
	out := &outcome{values: map[string]float64{}}
	out.tryPct("layer", newDist("x", make([]float64, 5)), 0.99, 1)
	if len(out.problems) != 0 {
		t.Errorf("a refused per-layer percentile failed the run: %v", out.problems)
	}
	out.setPct("e2e", newDist("x", make([]float64, 5)), 0.5, 1)
	if len(out.problems) != 1 {
		t.Errorf("a refused end-to-end percentile did not fail the run")
	}
}

func TestLadderMarginals(t *testing.T) {
	got := marginals([]float64{20, 35, 39, 55, 70, 101, 125})
	want := []float64{20, 15, 4, 16, 15, 31, 24}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("marginals = %v, want %v", got, want)
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum != 125 {
		t.Errorf("marginals sum to %g, want the top rung's 125", sum)
	}
	for layer, want := range map[string][2]string{
		"sim":                {"sim.ns_per_frame", "sim.allocs_per_frame"},
		"telemetry.recorder": {"telemetry.recorder_ns_per_frame", "telemetry.recorder_allocs_per_frame"},
	} {
		ns, allocs := ladderNames(layer)
		if ns != want[0] || allocs != want[1] {
			t.Errorf("ladderNames(%q) = %q, %q", layer, ns, allocs)
		}
	}
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	for _, layer := range rungLayers {
		ns, allocs := ladderNames(layer)
		if !known[ns] || !known[allocs] {
			t.Errorf("rung layer %q reports %q/%q, not both in perLayer", layer, ns, allocs)
		}
	}
}

// TestShortLadderIsPassive runs one round of the ladder on a short run:
// every monitored rung must produce the same verdicts and the full rung must
// pass the replay checks.
func TestShortLadderIsPassive(t *testing.T) {
	out := &outcome{values: map[string]float64{}}
	if err := perceptionLadder(perceptionConfig(5, 400), 0, newSpeed(), out); err != nil {
		t.Fatal(err)
	}
	if len(out.problems) > 0 {
		t.Fatalf("ladder checks failed: %v", out.problems)
	}
	if out.values["monitor.resolutions_per_frame"] != 7 {
		t.Errorf("%g resolutions per frame, want one per segment (7)", out.values["monitor.resolutions_per_frame"])
	}
}

func TestFleetJobIsSound(t *testing.T) {
	out := &outcome{values: map[string]float64{}}
	if err := fleetChaos(3, 0, false, out); err != nil {
		t.Fatal(err)
	}
	// One job is too few for the turnaround median; that refusal is the
	// only problem allowed.
	if out.failed != 0 || out.attempted != fleetPerSlot*13 || len(out.problems) != 1 {
		t.Fatalf("fleet job: %d attempted, %d failed, problems %v", out.attempted, out.failed, out.problems)
	}
}

func TestWallRunGivesOneVerdictEach(t *testing.T) {
	out := &outcome{values: map[string]float64{}}
	if err := wallMonitor(3, 500*time.Millisecond, true, out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted != int64(500*wallSegments) {
		t.Fatalf("%d of %d activations without exactly one verdict", out.failed, out.attempted)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// tables of this package in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no entry point", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %s, code has %d", strings.Join(names, ","), len(workloads))
	}
}
