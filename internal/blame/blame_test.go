package blame

import (
	"slices"
	"testing"

	"chainmon/internal/telemetry"
)

// feedFlow pushes a minimal budgeted-segment activation into the engine:
// ring-post-start at start, timeout-arm with an absolute deadline, and a
// verdict at start+e2e. label is the segment, scope the flow scope.
func feedFlow(e *Engine, scope uint8, act uint64, start, e2e, budget int64, label uint16, status uint8) {
	flow := telemetry.FlowID(scope, act)
	e.Feed(0, telemetry.Event{TS: start, Act: act, Flow: flow,
		Kind: telemetry.KindRingPostStart, Label: label})
	e.Feed(1, telemetry.Event{TS: start, Act: act, Arg: start + budget, Flow: flow,
		Kind: telemetry.KindTimeoutArm, Label: label})
	e.Feed(1, telemetry.Event{TS: start + e2e, Act: act, Arg: e2e, Flow: flow,
		Kind: telemetry.KindVerdict, Label: label, Status: status})
}

func res() Resolvers {
	return Resolvers{
		Label: func(id uint16) string { return map[uint16]string{1: "segA", 2: "segB"}[id] },
		Scope: func(id uint8) string { return "s" },
	}
}

// TestLedgerTelescoping pins the conservation invariant on a synthetic
// activation with hops outside any segment span: consecutive-hop deltas sum
// exactly to the end-to-end latency, so per scope Σ hop totals == Σ e2e.
func TestLedgerTelescoping(t *testing.T) {
	e := New(Options{})
	flow := telemetry.FlowID(3, 7)
	// dds-send(0) → net-send(10) → dds-recv(25) → post(30) → arm → verdict(70)
	e.Feed(0, telemetry.Event{TS: 0, Act: 7, Flow: flow, Kind: telemetry.KindDDSSend})
	e.Feed(0, telemetry.Event{TS: 10, Act: 7, Flow: flow, Kind: telemetry.KindNetSend})
	e.Feed(0, telemetry.Event{TS: 25, Act: 7, Flow: flow, Kind: telemetry.KindDDSRecv})
	e.Feed(1, telemetry.Event{TS: 30, Act: 7, Flow: flow, Kind: telemetry.KindRingPostStart, Label: 1})
	e.Feed(1, telemetry.Event{TS: 30, Act: 7, Arg: 30 + 15, Flow: flow, Kind: telemetry.KindTimeoutArm, Label: 1})
	e.Feed(1, telemetry.Event{TS: 70, Act: 7, Arg: 40, Flow: flow,
		Kind: telemetry.KindVerdict, Label: 1, Status: telemetry.StatusMissed})
	e.Flush()

	doc := e.Snapshot(res())
	if doc.Flows != 1 || doc.Missed != 1 {
		t.Fatalf("flows=%d missed=%d, want 1/1", doc.Flows, doc.Missed)
	}
	sc := doc.Scopes[0]
	if sc.E2ETotalNS != 70 {
		t.Fatalf("e2e total = %d, want 70", sc.E2ETotalNS)
	}
	var sum int64
	for _, h := range sc.Hops {
		sum += h.TotalNS
	}
	if sum != sc.E2ETotalNS {
		t.Errorf("Σ hop totals = %d, want e2e total %d (ledger must telescope)", sum, sc.E2ETotalNS)
	}
	// The segment dwelled 40 against a budget of 15: 25 of overrun, blamed
	// on the seg hop; the transit hops carry their full deltas as blame.
	var seg *SegmentDoc
	for i := range sc.Segments {
		if sc.Segments[i].Name == "segA" {
			seg = &sc.Segments[i]
		}
	}
	if seg == nil {
		t.Fatal("segment segA missing from slack table")
	}
	if seg.BudgetNS != 15 || seg.OverrunNS != 25 || seg.Armed != 1 || seg.Missed != 1 {
		t.Errorf("segA budget=%d overrun=%d armed=%d missed=%d, want 15/25/1/1",
			seg.BudgetNS, seg.OverrunNS, seg.Armed, seg.Missed)
	}
	// Blame shares sum to ~1e6 (integer division loses at most len(hops)-1).
	var share int64
	for _, h := range sc.Hops {
		share += h.SharePPM
	}
	if sc.TotalBlameNS > 0 && (share < 1_000_000-int64(len(sc.Hops)) || share > 1_000_000) {
		t.Errorf("blame shares sum to %d ppm, want 1e6−ε..1e6", share)
	}
}

// TestArmStampedBeforeItsStart pins the wall-clock case where a scan reads
// its clock (100), a producer then posts a start (102), and the drain that
// follows arms it stamped with the earlier reading. The arm sorts before its
// span, yet its absolute deadline still sets the segment's budget: the
// activation counts as armed, and only its overrun beyond the budget is
// blamed on the segment, whichever of the two events is fed first.
func TestArmStampedBeforeItsStart(t *testing.T) {
	flow := telemetry.FlowID(1, 7)
	post := telemetry.Event{TS: 102, Act: 7, Flow: flow, Kind: telemetry.KindRingPostStart, Label: 1}
	arm := telemetry.Event{TS: 100, Act: 7, Arg: 102 + 15, Flow: flow, Kind: telemetry.KindTimeoutArm, Label: 1}
	for _, order := range [][]telemetry.Event{{post, arm}, {arm, post}} {
		e := New(Options{})
		for _, ev := range order {
			e.Feed(0, ev)
		}
		e.Feed(1, telemetry.Event{TS: 130, Act: 7, Arg: 28, Flow: flow,
			Kind: telemetry.KindVerdict, Label: 1, Status: telemetry.StatusMissed})
		e.Flush()
		seg := e.Snapshot(res()).Scopes[0].Segments[0]
		if seg.Armed != 1 || seg.BudgetNS != 15 || seg.OverrunNS != 13 {
			t.Errorf("fed %v then %v: segA armed=%d budget=%d overrun=%d, want 1/15/13",
				order[0].Kind, order[1].Kind, seg.Armed, seg.BudgetNS, seg.OverrunNS)
		}
	}
}

// TestExemplarEviction pins the deterministic top-K ordering: worse = larger
// e2e, ties by ascending flow id, capped at K with the best-of-the-worst
// evicted first.
func TestExemplarEviction(t *testing.T) {
	e := New(Options{TopK: 2})
	feedFlow(e, 1, 1, 0, 10, 5, 1, telemetry.StatusMissed)
	feedFlow(e, 1, 2, 100, 30, 5, 1, telemetry.StatusMissed)
	feedFlow(e, 1, 3, 200, 20, 5, 1, telemetry.StatusMissed)
	feedFlow(e, 1, 4, 300, 30, 5, 1, telemetry.StatusMissed)
	feedFlow(e, 1, 5, 400, 8, 5, 1, telemetry.StatusOK) // OK: never an exemplar
	e.Flush()

	doc := e.Snapshot(res())
	xs := doc.Scopes[0].Exemplars
	if len(xs) != 2 {
		t.Fatalf("%d exemplars, want 2", len(xs))
	}
	// Both e2e=30; the tie goes to the lower flow id (act 2 before act 4).
	if xs[0].Act != 2 || xs[1].Act != 4 {
		t.Errorf("exemplar acts = %d,%d, want 2,4", xs[0].Act, xs[1].Act)
	}
	if xs[0].Rank != 1 || xs[1].Rank != 2 {
		t.Errorf("ranks = %d,%d, want 1,2", xs[0].Rank, xs[1].Rank)
	}
	for _, x := range xs {
		if x.E2ENS != 30 || x.Status != "missed" || x.Primary != "segA" {
			t.Errorf("exemplar %+v, want e2e=30 status=missed primary=segA", x)
		}
	}
}

// TestEpochTracking pins the budget-epoch bookkeeping: the engine's epoch is
// the max budget-swap epoch seen, and a segment's slack row records the
// epoch in force when its activation was armed.
func TestEpochTracking(t *testing.T) {
	e := New(Options{})
	feedFlow(e, 1, 1, 0, 10, 20, 1, telemetry.StatusOK)
	e.Feed(0, telemetry.Event{TS: 50, Act: 3, Arg: 7, Kind: telemetry.KindBudgetSwap, Label: 1})
	if e.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", e.Epoch())
	}
	feedFlow(e, 1, 2, 100, 10, 7, 1, telemetry.StatusOK)
	e.Flush()

	doc := e.Snapshot(res())
	if doc.Epoch != 3 {
		t.Errorf("doc epoch = %d, want 3", doc.Epoch)
	}
	seg := doc.Scopes[0].Segments[0]
	if seg.Epoch != 3 || seg.BudgetNS != 7 {
		t.Errorf("segment epoch=%d budget=%d, want 3/7 (last arm under the swapped budget)", seg.Epoch, seg.BudgetNS)
	}
}

// TestConstantMemoryCaps pins the bounded-state behavior: beyond MaxPending
// the oldest flow is force-finalized (and counted), and hops past MaxHops
// are dropped (and counted) rather than retained.
func TestConstantMemoryCaps(t *testing.T) {
	e := New(Options{MaxPending: 4, MaxHops: 3, Window: 1 << 30})
	for act := uint64(1); act <= 8; act++ {
		flow := telemetry.FlowID(1, act)
		e.Feed(0, telemetry.Event{TS: int64(act) * 10, Act: act, Flow: flow, Kind: telemetry.KindDDSSend})
	}
	for i := 0; i < 10; i++ {
		flow := telemetry.FlowID(1, 8)
		e.Feed(0, telemetry.Event{TS: 100 + int64(i), Act: 8, Flow: flow, Kind: telemetry.KindNetSend})
	}
	e.Flush()
	doc := e.Snapshot(res())
	if doc.Forced == 0 {
		t.Errorf("forced finalizations = 0, want > 0 with MaxPending 4 and 8 live flows")
	}
	if doc.TruncatedHops == 0 {
		t.Errorf("truncated hops = 0, want > 0 with MaxHops 3 and an 11-hop flow")
	}
}

// TestSweepFinalizesOutOfWindow pins the online finalization rule: once
// activation a+Window arrives in a scope, activation a resolves without a
// Flush — the live /health path.
func TestSweepFinalizesOutOfWindow(t *testing.T) {
	e := New(Options{Window: 4})
	feedFlow(e, 1, 1, 0, 10, 20, 1, telemetry.StatusOK)
	doc := e.Snapshot(res())
	if doc.Flows != 0 {
		t.Fatalf("flow finalized before its window elapsed")
	}
	feedFlow(e, 1, 5, 500, 10, 20, 1, telemetry.StatusOK)
	doc = e.Snapshot(res())
	if doc.Flows != 1 {
		t.Errorf("flows = %d, want 1 (act 1 is 4 activations behind act 5)", doc.Flows)
	}
}

// TestFeedAllocFree is the CI allocation gate on the attribution hot path:
// once the flow-record freelist, the hop arrays, the span scratch and the
// scope aggregates have reached steady state, one on-time activation's hop
// sequence plus the window finalization it triggers allocates nothing.
func TestFeedAllocFree(t *testing.T) {
	e := New(Options{Window: 8})
	act := uint64(0)
	flow := func() {
		act++
		feedFlow(e, 1, act, int64(act)*1000, 10, 20, 1, telemetry.StatusOK)
	}
	for i := 0; i < 200; i++ { // warm the freelist, scratch and map capacity
		flow()
	}
	if allocs := testing.AllocsPerRun(1000, flow); allocs != 0 {
		t.Fatalf("Feed + finalization allocates %.2f/flow, want 0", allocs)
	}
	if doc := e.Snapshot(res()); doc.Flows != act-8 {
		t.Fatalf("flows = %d, want %d finalized by the window", doc.Flows, act-8)
	}
}

// TestRecreatedFlowEvictedOnArrival pins the pending cap's handling of a
// flow id that returns after finalization (a late hop of an activation
// already swept out of the window). A stale insertion-order entry of the
// id can name the re-created flow, so the eviction its arrival triggers
// may finalize that flow at once. The hop is then dropped with it, and the
// flow records that are recycled stay clean: the next flow attributes
// only its own hops.
func TestRecreatedFlowEvictedOnArrival(t *testing.T) {
	e := New(Options{MaxPending: 2, Window: 2})
	hop := func(scope uint8, act uint64, ts int64, kind telemetry.Kind) {
		e.Feed(0, telemetry.Event{TS: ts, Act: act, Flow: telemetry.FlowID(scope, act), Kind: kind})
	}
	hop(2, 1, 0, telemetry.KindDDSSend)  // A: stays pending, ahead of X
	hop(1, 1, 0, telemetry.KindDDSSend)  // X
	hop(1, 3, 10, telemetry.KindDDSSend) // Y: sweeps X out of the window
	hop(3, 1, 20, telemetry.KindDDSSend) // Z: evicts A, X's stale entry leads
	hop(1, 1, 50, telemetry.KindDDSRecv) // X again: evicted on arrival
	hop(3, 2, 100, telemetry.KindDDSSend)
	hop(3, 2, 110, telemetry.KindDDSRecv)
	e.Flush()
	doc := e.Snapshot(Resolvers{
		Label: func(uint16) string { return "" },
		Scope: func(id uint8) string { return string(rune('a' + id)) },
	})
	i := slices.IndexFunc(doc.Scopes, func(sc ScopeDoc) bool { return sc.Scope == "d" })
	if i < 0 {
		t.Fatal("scope 3 missing from the snapshot")
	}
	if sc := doc.Scopes[i]; sc.Flows != 1 || sc.E2ETotalNS != 10 {
		t.Fatalf("scope 3: flows=%d e2e=%d, want 1 flow of 10ns (its own two hops)", sc.Flows, sc.E2ETotalNS)
	}
	if doc.Forced != 3 {
		t.Errorf("forced finalizations = %d, want 3 (A, the re-created X, then Y)", doc.Forced)
	}
}

// TestPublishMetricsAllocFree is the CI allocation gate on the engine's
// /metrics export hook: once a registry's rows are bound, republishing
// reads the aggregates and sets the bound gauges, allocating nothing.
func TestPublishMetricsAllocFree(t *testing.T) {
	e := New(Options{Window: 4})
	for act := uint64(1); act <= 100; act++ {
		status := telemetry.StatusOK
		if act%7 == 0 {
			status = telemetry.StatusMissed
		}
		feedFlow(e, 1, act, int64(act)*1000, 30, 20, uint16(1+act%2), status)
		feedFlow(e, 2, act, int64(act)*1000, 10, 20, 1, telemetry.StatusOK)
	}
	e.Flush()
	reg := telemetry.NewRegistry()
	e.PublishMetrics(reg, res()) // binds every row
	if allocs := testing.AllocsPerRun(100, func() { e.PublishMetrics(reg, res()) }); allocs != 0 {
		t.Fatalf("a publish that adds no row allocates %.0f, want 0", allocs)
	}
}
