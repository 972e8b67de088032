package adaptive

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"chainmon/internal/dds"
	"chainmon/internal/livestats"
	"chainmon/internal/monitor"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
	"chainmon/internal/vclock"
	"chainmon/internal/weaklyhard"
)

// feedScope pushes n identical latency observations into a set's segment
// scope, standing in for a monitored segment in the unit tests.
func feedScope(set *livestats.Set, name string, n int, lat sim.Duration) {
	sc := set.Segment(name, weaklyhard.Constraint{})
	for i := 0; i < n; i++ {
		sc.Observe(float64(lat), false)
	}
}

// deadlineOf looks a segment up in a deadline table (0 when absent).
func deadlineOf(t DeadlineTable, name string) int64 {
	for i := 0; i < t.Len(); i++ {
		if n, ns := t.At(i); n == name {
			return ns
		}
	}
	return 0
}

func newUnitController(t *testing.T, cfg Config) (*Controller, *monitor.BudgetTable) {
	t.Helper()
	if cfg.Set == nil {
		cfg.Set = livestats.NewSet(0)
	}
	tab := monitor.NewBudgetTable()
	cfg.Table = tab
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, tab
}

// TestGuardrailHysteresisHolds: a solved deadline within the dead band of
// the current one is not actuated.
func TestGuardrailHysteresisHolds(t *testing.T) {
	set := livestats.NewSet(0)
	feedScope(set, "s", 100, 5*sim.Millisecond)
	c, tab := newUnitController(t, Config{
		Set:      set,
		Segments: []SegmentSpec{{Name: "s", Initial: 5500 * sim.Microsecond}},
		DEx:      sim.Millisecond, Be2e: 40 * sim.Millisecond,
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
		Guard:      Guardrails{MinSamples: 8},
	})
	// Solved: max 5ms + 5% margin = 5.25ms; current 5.5ms; band 10% = 550µs.
	act := c.Tick(1)
	if act.Result != ResultHeld || !strings.Contains(act.Reason, "hysteresis") {
		t.Fatalf("actuation %+v, want held on the hysteresis band", act)
	}
	if tab.Epoch() != 0 {
		t.Fatalf("table staged epoch %d, want untouched 0", tab.Epoch())
	}
	if got := deadlineOf(act.DeadlinesNS, "s"); got != int64(5500*sim.Microsecond) {
		t.Fatalf("held actuation reports deadline %d, want the unchanged initial", got)
	}
}

// TestGuardrailClampApplies: a solved deadline below the segment's Min is
// clamped up and the clamped table is staged.
func TestGuardrailClampApplies(t *testing.T) {
	set := livestats.NewSet(0)
	feedScope(set, "s", 100, 2*sim.Millisecond)
	c, tab := newUnitController(t, Config{
		Set:      set,
		Segments: []SegmentSpec{{Name: "s", Initial: 20 * sim.Millisecond, Min: 8 * sim.Millisecond}},
		DEx:      sim.Millisecond, Be2e: 40 * sim.Millisecond,
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
		Guard:      Guardrails{MinSamples: 8},
	})
	act := c.Tick(1)
	if act.Result != ResultApplied || act.Epoch != 1 {
		t.Fatalf("actuation %+v, want applied at epoch 1", act)
	}
	if got := tab.Deadlines()["s"]; got != 8*sim.Millisecond {
		t.Fatalf("staged deadline %v, want the 8ms clamp (solved ~2.1ms)", got)
	}
	if got := c.Deadlines()["s"]; got != 8*sim.Millisecond {
		t.Fatalf("controller tracks %v, want 8ms", got)
	}
}

// TestGuardrailInfeasibleHolds: when no assignment fits the end-to-end
// budget, the current table stays in force.
func TestGuardrailInfeasibleHolds(t *testing.T) {
	set := livestats.NewSet(0)
	feedScope(set, "s", 100, 5*sim.Millisecond)
	c, tab := newUnitController(t, Config{
		Set:      set,
		Segments: []SegmentSpec{{Name: "s", Initial: 10 * sim.Millisecond, Propagation: 1}},
		DEx:      sim.Millisecond, Be2e: 3 * sim.Millisecond, // < max latency + DEx
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
		Guard:      Guardrails{MinSamples: 8},
	})
	act := c.Tick(1)
	if act.Result != ResultInfeasible {
		t.Fatalf("actuation %+v, want infeasible", act)
	}
	if tab.Epoch() != 0 || c.Deadlines()["s"] != 10*sim.Millisecond {
		t.Fatalf("infeasible tick must not actuate (epoch %d, deadline %v)", tab.Epoch(), c.Deadlines()["s"])
	}
}

// TestMinSamplesReservesSegment: a segment below MinSamples keeps its
// current deadline, is still staged in the full table, and its extended
// share is subtracted from the end-to-end budget handed to the solver.
func TestMinSamplesReservesSegment(t *testing.T) {
	set := livestats.NewSet(0)
	feedScope(set, "a", 100, 4*sim.Millisecond)
	feedScope(set, "b", 3, 4*sim.Millisecond) // below MinSamples
	c, tab := newUnitController(t, Config{
		Set: set,
		Segments: []SegmentSpec{
			{Name: "a", Initial: 20 * sim.Millisecond},
			{Name: "b", Initial: 10 * sim.Millisecond},
		},
		DEx: sim.Millisecond, Be2e: 30 * sim.Millisecond,
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
		Guard:      Guardrails{MinSamples: 8},
	})
	act := c.Tick(1)
	if act.Result != ResultApplied {
		t.Fatalf("actuation %+v, want applied", act)
	}
	d := tab.Deadlines()
	if d["b"] != 10*sim.Millisecond {
		t.Fatalf("reserved segment staged at %v, want its untouched 10ms", d["b"])
	}
	want := 4*sim.Millisecond + 4*sim.Millisecond/20 // max 4ms + 5% margin
	if d["a"] != want {
		t.Fatalf("solved segment staged at %v, want %v", d["a"], want)
	}

	// Shrink the budget so the reserved share alone starves the solver:
	// 30ms total − (10ms+1ms reserved) leaves 19ms, but 11.8ms is enough
	// for a's 5ms extended need — so instead reserve b at a huge deadline.
	set2 := livestats.NewSet(0)
	feedScope(set2, "a", 100, 4*sim.Millisecond)
	feedScope(set2, "b", 3, 4*sim.Millisecond)
	c2, _ := newUnitController(t, Config{
		Set: set2,
		Segments: []SegmentSpec{
			{Name: "a", Initial: 20 * sim.Millisecond},
			{Name: "b", Initial: 28 * sim.Millisecond},
		},
		DEx: sim.Millisecond, Be2e: 30 * sim.Millisecond,
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
		Guard:      Guardrails{MinSamples: 8},
	})
	if act := c2.Tick(1); act.Result != ResultInfeasible {
		t.Fatalf("actuation %+v, want infeasible: b's reserved 29ms leaves 1ms for a's 5ms need", act)
	}
}

// TestRollbackOnBurnEscalation: an escalation of the gating chain scope to
// burning or worse restores the previously applied table.
func TestRollbackOnBurnEscalation(t *testing.T) {
	set := livestats.NewSet(0)
	feedScope(set, "s", 100, 5*sim.Millisecond)
	chain := set.Chain("c", weaklyhard.Constraint{M: 1, K: 4})
	c, tab := newUnitController(t, Config{
		Set: set, Chain: "c",
		Segments: []SegmentSpec{{Name: "s", Initial: 10 * sim.Millisecond}},
		DEx:      sim.Millisecond, Be2e: 40 * sim.Millisecond,
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
		Guard:      Guardrails{MinSamples: 8},
	})
	if act := c.Tick(1); act.Result != ResultApplied {
		t.Fatalf("first tick %+v, want applied (5.25ms vs initial 10ms)", act)
	}
	// Two misses in a (1,4) window exceed the budget: violated.
	chain.Record(true)
	chain.Record(true)
	act := c.Tick(2)
	if act.Result != ResultRollback || act.Epoch != 2 {
		t.Fatalf("escalated tick %+v, want rollback at epoch 2", act)
	}
	if got := tab.Deadlines()["s"]; got != 10*sim.Millisecond {
		t.Fatalf("rolled-back table holds %v, want the pre-actuation 10ms", got)
	}
	// Still violated on the next tick: no second rollback target, and the
	// censored-latency hold keeps the solver quiet.
	act = c.Tick(3)
	if act.Result != ResultHeld || !strings.Contains(act.Reason, "censored") {
		t.Fatalf("post-rollback tick %+v, want the burn hold", act)
	}
}

// TestHealthDocExposesBudget: New registers the controller as the Set's
// budget provider, so /health documents carry the table and history.
func TestHealthDocExposesBudget(t *testing.T) {
	set := livestats.NewSet(0)
	feedScope(set, "s", 100, 2*sim.Millisecond)
	c, _ := newUnitController(t, Config{
		Set:      set,
		Segments: []SegmentSpec{{Name: "s", Initial: 20 * sim.Millisecond}},
		DEx:      sim.Millisecond, Be2e: 40 * sim.Millisecond,
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
		Guard:      Guardrails{MinSamples: 8},
	})
	c.Tick(1)
	doc, ok := set.Health().Budget.(healthDocT)
	if !ok {
		t.Fatalf("health budget section is %T, want the controller's doc", set.Health().Budget)
	}
	if doc.Epoch != 1 || len(doc.Actuations) != 1 || doc.Actuations[0].Result != ResultApplied {
		t.Fatalf("health doc %+v, want epoch 1 with one applied actuation", doc)
	}
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("health doc must marshal: %v", err)
	}
}

// --- end-to-end: the control loop against a real simulated monitor ---

// adaptiveRun drives one deterministic end-to-end scenario and returns the
// controller, the live set, the telemetry sink, and the marshaled history.
//
// Timeline (period 10ms, 90 activations):
//   - acts 0..29 cost {3, 3.5, 4}ms under the initial 20ms deadline: plenty
//     of slack, the controller tightens (clamped at the 6ms Min).
//   - acts 30.. cost {7, 7.6, 8.2}ms: everything misses the 6ms budget, the
//     chain (12,24) SLO burns, and at burning the controller rolls back to
//     the 20ms table before the window is violated.
//   - once the window recovers, the now-uncensored spike latencies re-solve
//     to ~8.6ms (max 8.2ms + 5% margin): the load spike is accommodated.
func adaptiveRun(t *testing.T) (*Controller, *livestats.Set, *telemetry.Sink, []byte) {
	t.Helper()
	k := sim.NewKernel()
	d := dds.NewDomain(k, sim.NewRNG(1))
	ecu := d.NewECU("ecu", 2, vclock.Config{})
	mon := monitor.NewLocalMonitor(ecu)
	seg := mon.AddSegment(monitor.SegmentConfig{
		Name: "work", DMon: 20 * sim.Millisecond, DEx: sim.Millisecond,
		Period: 10 * sim.Millisecond, Constraint: weaklyhard.Constraint{M: 12, K: 24},
	})
	set := livestats.NewSet(0)
	mon.AttachLive(set)
	chain := set.Chain("e2e", weaklyhard.Constraint{M: 12, K: 24})
	seg.OnResolve(func(r monitor.Resolution) {
		miss := r.Status == monitor.StatusMissed
		if lat, ok := r.LatencySample(); ok {
			chain.Observe(float64(lat), miss)
		} else {
			chain.Record(miss)
		}
	})
	tab := monitor.NewBudgetTable()
	mon.AttachBudget(tab)
	sink := telemetry.NewSink(1024)

	ctrl, err := New(Config{
		Set: set, Table: tab, Chain: "e2e",
		Segments: []SegmentSpec{{
			Name: "work", Propagation: 1,
			Initial: 20 * sim.Millisecond, Min: 6 * sim.Millisecond, Max: 30 * sim.Millisecond,
		}},
		DEx: sim.Millisecond, Be2e: 40 * sim.Millisecond,
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
		Guard:      Guardrails{MinSamples: 8},
		Sink:       sink,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// 7.1ms keeps ticks off the 10ms activation grid and the +6ms timeout
	// instants, so tick/scan orderings never depend on same-time tie-breaks.
	ctrl.ScheduleSim(k, 7100*sim.Microsecond, sim.Time(900*sim.Millisecond))

	calm := []sim.Duration{3 * sim.Millisecond, 3500 * sim.Microsecond, 4 * sim.Millisecond}
	spike := []sim.Duration{7 * sim.Millisecond, 7600 * sim.Microsecond, 8200 * sim.Microsecond}
	for i := 0; i < 90; i++ {
		act := uint64(i)
		cost := calm[i%3]
		if i >= 30 {
			cost = spike[i%3]
		}
		start := sim.Time(int64(i) * int64(10*sim.Millisecond))
		k.At(start, func() { seg.StartInjected(act) })
		k.At(start.Add(cost), func() { seg.EndInjected(act) })
	}
	k.Run()

	hist, err := json.Marshal(ctrl.History())
	if err != nil {
		t.Fatalf("marshal history: %v", err)
	}
	return ctrl, set, sink, hist
}

// TestAdaptiveEndToEndSim is the tentpole demo: slack is reclaimed, a load
// spike triggers rollback before the chain SLO is violated, and the loop
// settles on a deadline that accommodates the new load — all inside the
// deterministic simulation.
func TestAdaptiveEndToEndSim(t *testing.T) {
	ctrl, set, sink, _ := adaptiveRun(t)

	var applied []Actuation
	rollbacks := 0
	for _, a := range ctrl.History() {
		switch a.Result {
		case ResultApplied:
			applied = append(applied, a)
		case ResultRollback:
			rollbacks++
		case ResultInfeasible:
			t.Fatalf("unexpected infeasible actuation: %+v", a)
		}
	}
	if len(applied) != 2 || rollbacks != 1 {
		t.Fatalf("got %d applied / %d rollbacks, want 2 applied (tighten, re-solve) and 1 rollback", len(applied), rollbacks)
	}
	if got := deadlineOf(applied[0].DeadlinesNS, "work"); got != int64(6*sim.Millisecond) {
		t.Fatalf("slack phase actuated %v, want the 6ms Min clamp", sim.Duration(got))
	}
	relaxed := sim.Duration(deadlineOf(applied[1].DeadlinesNS, "work"))
	if relaxed <= 8200*sim.Microsecond || relaxed >= 10*sim.Millisecond {
		t.Fatalf("post-spike deadline %v, want ~8.6ms (max 8.2ms + margin), strictly above the spike costs", relaxed)
	}

	h := set.Health()
	if slo := h.Chains["e2e"].SLO; slo == nil || slo.Violations != 0 {
		t.Fatalf("chain SLO %+v: the run must stay violation-free", h.Chains["e2e"].SLO)
	}
	if slo := h.Segments["work"].SLO; slo == nil || slo.Violations != 0 {
		t.Fatalf("segment SLO %+v: the run must stay violation-free", h.Segments["work"].SLO)
	}

	// Every table change emitted one KindBudgetSwap event: tighten,
	// rollback, re-solve.
	var swaps []telemetry.Event
	for _, ev := range sink.Rec.Track("budget").Events() {
		if ev.Kind == telemetry.KindBudgetSwap {
			swaps = append(swaps, ev)
		}
	}
	if len(swaps) != 3 {
		t.Fatalf("%d budget-swap events, want 3 (tighten, rollback, re-solve)", len(swaps))
	}
	for i, ev := range swaps {
		if ev.Act != uint64(i+1) {
			t.Fatalf("swap event %d carries epoch %d, want %d", i, ev.Act, i+1)
		}
		if sink.Rec.LabelName(ev.Label) != "work" {
			t.Fatalf("swap event %d labeled %q, want the segment name", i, sink.Rec.LabelName(ev.Label))
		}
	}
}

// TestAdaptiveSameSeedByteIdentical pins determinism: the control loop is
// an ordinary kernel event, so the same seed reproduces the actuation
// history byte for byte.
func TestAdaptiveSameSeedByteIdentical(t *testing.T) {
	_, _, _, h1 := adaptiveRun(t)
	_, _, _, h2 := adaptiveRun(t)
	if string(h1) != string(h2) {
		t.Fatalf("same-seed actuation histories differ:\n%s\nvs\n%s", h1, h2)
	}
}

// TestBudgetHealthAllocs pins the cost of rendering the /health budget
// section with a full actuation history: each retained actuation's
// deadline table is pre-rendered JSON, so a warm indenting encoder renders
// the whole section in a fixed handful of allocations instead of
// reflecting over one map per actuation (1289 allocations at 256).
func TestBudgetHealthAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled JSON rendering are not meaningful under -race")
	}
	c, _ := newUnitController(t, Config{
		Segments: []SegmentSpec{
			{Name: "objects", Initial: 10 * sim.Millisecond},
			{Name: "ground", Initial: 12 * sim.Millisecond},
		},
		DEx: sim.Millisecond, Be2e: 40 * sim.Millisecond,
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
	})
	for i := 0; i < maxHistory+10; i++ {
		c.Tick(int64(i))
	}
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	render := func() {
		if err := enc.Encode(c.healthDoc()); err != nil {
			t.Fatal(err)
		}
	}
	render() // warm the encoder's indent buffer
	// The section's interface box and its copy of the history.
	const want = 2
	if allocs := testing.AllocsPerRun(50, render); allocs != want {
		t.Fatalf("rendering the budget section with %d actuations allocates %.0f, want %d",
			maxHistory, allocs, want)
	}
	raw, err := json.Marshal(c.healthDoc())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"deadlines_ns":{"ground":12000000,"objects":10000000}`) {
		t.Fatalf("budget section does not carry the name-sorted deadline object: %.200s", raw)
	}
}
