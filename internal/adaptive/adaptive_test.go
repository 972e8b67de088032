package adaptive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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

// budgetDoc is the layout of the /health budget section, kept here as the
// reference the controller's rendering must match.
type budgetDoc struct {
	Epoch          uint64        `json:"epoch"`
	AppliedEpoch   uint64        `json:"applied_epoch"`
	DeadlinesNS    DeadlineTable `json:"deadlines_ns"`
	Actuations     []Actuation   `json:"actuations"`
	DroppedHistory int           `json:"dropped_history,omitempty"`
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
	var doc budgetDoc
	if err := json.Unmarshal(set.Health().Budget, &doc); err != nil {
		t.Fatalf("health budget section does not parse: %v\n%s", err, set.Health().Budget)
	}
	if doc.Epoch != 1 || len(doc.Actuations) != 1 || doc.Actuations[0].Result != ResultApplied {
		t.Fatalf("health doc %+v, want epoch 1 with one applied actuation", doc)
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

// TestBudgetHealthAllocs pins the cost of the /health budget section with a
// full actuation history: each retained actuation is rendered once, by the
// first scrape that includes it, so appending the section into a warm
// buffer copies bytes and allocates nothing. Rendering the history again on
// every scrape, or reflecting over it, fails the gate.
func TestBudgetHealthAllocs(t *testing.T) {
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
	buf := c.appendHealth(nil) // renders every retained actuation
	render := func() { buf = c.appendHealth(buf[:0]) }
	if allocs := testing.AllocsPerRun(50, render); allocs != 0 {
		t.Fatalf("appending the budget section with %d actuations allocates %.0f, want 0",
			maxHistory, allocs)
	}
	want := "\"deadlines_ns\": {\n" + elemIndent + "\"ground\": 12000000,\n" + elemIndent + "\"objects\": 10000000\n" + fieldIndent + "}"
	if !strings.Contains(string(buf), want) {
		t.Fatalf("budget section does not carry the name-sorted deadline object: %.300s", buf)
	}
}

// healthSet builds a live set as a monitor process has it, with the
// section providers a test asks for. n < 0 attaches no controller;
// otherwise the controller ticks n times: an applied actuation, a rollback
// when the chain's burn state escalates, then holds whose reason quotes a
// chain name that needs JSON and HTML escaping.
func healthSet(t *testing.T, n int, withBlame, withMeta bool) (*livestats.Set, *Controller) {
	t.Helper()
	set := livestats.NewSet(0)
	set.SetTimebase("sim")
	set.AddDropSource("trace-stream", func() uint64 { return 3 })
	feedScope(set, "s", 100, 5*sim.Millisecond)
	set.Segment("s", weaklyhard.Constraint{M: 1, K: 4}).ObserveDrain(1500)
	const chainName = `e2e "<&>"`
	chain := set.Chain(chainName, weaklyhard.Constraint{M: 1, K: 4})
	chain.Observe(6e6, false)
	if withBlame {
		set.SetBlameProvider(func() any {
			return map[string]any{
				"epoch":  2,
				"empty":  map[string]int{},
				"none":   []int{},
				"scopes": []any{map[string]any{"scope": "s<1>&\"", "share": 0.25, "hops": [][]int{{1, 2}, {}}}},
			}
		})
	}
	if withMeta {
		set.SetMetaProvider(func() any {
			return map[string]any{"scenario": "unit", "budget_epoch": 1}
		})
	}
	if n < 0 {
		return set, nil
	}
	c, _ := newUnitController(t, Config{
		Set: set, Chain: chainName,
		Segments: []SegmentSpec{
			{Name: "s", Initial: 10 * sim.Millisecond},
			{Name: "t", Initial: 8 * sim.Millisecond},
		},
		DEx: sim.Millisecond, Be2e: 40 * sim.Millisecond,
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
		Guard:      Guardrails{MinSamples: 8},
	})
	for i := 0; i < n; i++ {
		if i == 1 {
			chain.Record(true) // two misses in a (1,4) window: violated
			chain.Record(true)
		}
		c.Tick(int64(i+1) * int64(sim.Second))
	}
	return set, c
}

// TestHealthBytesAtHistoryEdges pins the spliced /health document to
// encoding/json's own rendering, json.MarshalIndent(set.Health(), "", "  ")
// plus a newline, at the edges of the actuation history (none yet, one,
// exactly the cap, past the cap) and with each section present and absent.
// The budget section's content is checked against the reference layout.
func TestHealthBytesAtHistoryEdges(t *testing.T) {
	for _, n := range []int{-1, 0, 1, maxHistory, 300} {
		for _, withBlame := range []bool{false, true} {
			for _, withMeta := range []bool{false, true} {
				t.Run(fmt.Sprintf("history=%d/blame=%v/meta=%v", n, withBlame, withMeta), func(t *testing.T) {
					set, c := healthSet(t, n, withBlame, withMeta)
					h := set.Handler()
					for scrape := 0; scrape < 2; scrape++ { // rendering, then copying
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/health", nil))
						want, err := json.MarshalIndent(set.Health(), "", "  ")
						if err != nil {
							t.Fatal(err)
						}
						want = append(want, '\n')
						if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
							t.Fatalf("scrape %d: status %d, %d bytes; want encoding/json's %d bytes; first difference: %s",
								scrape, rec.Code, rec.Body.Len(), len(want), firstDiff(rec.Body.Bytes(), want))
						}
					}
					if c == nil {
						return
					}
					ref := budgetDoc{
						Epoch:          c.cfg.Table.Epoch(),
						AppliedEpoch:   c.cfg.Table.AppliedEpoch(),
						DeadlinesNS:    c.table,
						Actuations:     c.History(),
						DroppedHistory: max(n-maxHistory, 0),
					}
					wantDoc, err := json.Marshal(ref)
					if err != nil {
						t.Fatal(err)
					}
					var got bytes.Buffer
					if err := json.Compact(&got, set.Health().Budget); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), wantDoc) {
						t.Fatalf("budget section content differs from the reference layout; first difference: %s",
							firstDiff(got.Bytes(), wantDoc))
					}
					if n == maxHistory && !strings.Contains(got.String(), `"result":"rollback","reason":"chain \"e2e \\\"\u003c\u0026\u003e\\\"\"`) {
						t.Fatalf("history lacks the escaped rollback reason: %.600s", got.String())
					}
				})
			}
		}
	}
}

// firstDiff quotes got and want from the first byte where they differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("at byte %d: got %.80q, want %.80q", i, got[i:], want[i:])
}

// TestConcurrentTicksAndScrapes is the -race witness of the history's
// lifetime: a wall-clock controller ticks, evicts and renders while two
// goroutines scrape /health. Every body must be one whole document whose
// history is a contiguous run of actuations, the last of them numbered by
// everything ever recorded.
func TestConcurrentTicksAndScrapes(t *testing.T) {
	set := livestats.NewSet(0)
	feedScope(set, "s", 100, 5*sim.Millisecond)
	c, _ := newUnitController(t, Config{
		Set:      set,
		Segments: []SegmentSpec{{Name: "s", Initial: 10 * sim.Millisecond}},
		DEx:      sim.Millisecond, Be2e: 40 * sim.Millisecond,
		Constraint: weaklyhard.Constraint{M: 0, K: 1},
		Guard:      Guardrails{MinSamples: 8},
	})
	stop := c.StartWall(50 * time.Microsecond)
	defer stop()
	handler := set.Handler()
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Scrape until the history has been evicted past the cap twice.
			for last := -1; last < 2*maxHistory; {
				if time.Now().After(deadline) {
					t.Errorf("only %d ticks seen before the deadline", last+1)
					return
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/health", nil))
				var doc struct {
					Budget budgetDoc `json:"budget"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
					t.Errorf("concurrent scrape served an invalid document: %v", err)
					return
				}
				acts := doc.Budget.Actuations
				for i := 1; i < len(acts); i++ {
					if acts[i].Seq != acts[i-1].Seq+1 {
						t.Errorf("history jumps from seq %d to %d", acts[i-1].Seq, acts[i].Seq)
						return
					}
				}
				if len(acts) == 0 {
					continue
				}
				last = acts[len(acts)-1].Seq
				if len(acts)+doc.Budget.DroppedHistory != last+1 {
					t.Errorf("%d retained + %d dropped actuations, but the last is seq %d",
						len(acts), doc.Budget.DroppedHistory, last)
					return
				}
			}
		}()
	}
	wg.Wait()
}
