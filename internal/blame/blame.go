// Package blame is the online per-activation miss-attribution engine: it
// stitches the flow-id hop events the telemetry layer already emits
// (dds-send → net-send → dds-recv → ring-post → verdict, including pub-skip
// and recovery paths) into per-activation hop ledgers, scores each ledger
// entry against the per-segment budget that was in force when the
// activation was armed, and folds the result into constant-memory
// aggregates: per-hop overrun sketches (livestats DDSketch machinery),
// per-hop blame-share counters, per-segment slack tables and a top-K
// worst-exemplar store with deterministic eviction.
//
// The engine is fed one event at a time through Feed, from either of two
// equivalent taps:
//
//   - StreamWriter.SetObserver, which sees exactly the events — in exactly
//     the order — that reach a CHMTRC01 stream log. Replaying the written
//     log through FromLog therefore reconstructs a byte-identical engine
//     state: the online /health blame section and the offline
//     `chainmon trace report -blame` agree byte for byte, on both
//     timebases.
//   - Recorder.SetObserver, for runs without a stream log (plain sim runs,
//     fleet vehicles), where append order is the feed order.
//
// Feed never calls back into the telemetry layer: label, scope and track
// ids stay raw inside the engine and are resolved to names only at
// Snapshot time, outside the recorder and stream locks. That discipline is
// what makes the stream-observer tap deadlock-free (the observer runs
// under the stream writer's lock).
package blame

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"chainmon/internal/livestats"
	"chainmon/internal/telemetry"
)

// Defaults for Options zero values.
const (
	DefaultTopK       = 4
	DefaultMaxHops    = 64
	DefaultMaxPending = 4096
	DefaultWindow     = 64
)

// Options configures an Engine. The zero value selects the defaults.
type Options struct {
	// Alpha is the relative accuracy of the overrun/dwell sketches
	// (0 selects livestats.DefaultAlpha).
	Alpha float64
	// TopK is how many worst missed activations are retained per scope as
	// full-timeline exemplars (0 selects DefaultTopK).
	TopK int
	// MaxHops caps the hops retained per activation; hops beyond the cap
	// are dropped and counted (0 selects DefaultMaxHops).
	MaxHops int
	// MaxPending caps the number of concurrently unresolved activations;
	// beyond it the oldest is force-finalized and counted (0 selects
	// DefaultMaxPending). Together with MaxHops this makes the engine's
	// memory constant no matter how long the run is.
	MaxPending int
	// Window is the activation distance after which a flow is considered
	// resolved: once an event for activation a+Window arrives in the same
	// scope, activation a is finalized. It matches the monitor's verdict
	// reorder window (0 selects DefaultWindow).
	Window uint64
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = livestats.DefaultAlpha
	}
	if o.TopK <= 0 {
		o.TopK = DefaultTopK
	}
	if o.MaxHops <= 0 {
		o.MaxHops = DefaultMaxHops
	}
	if o.MaxPending <= 0 {
		o.MaxPending = DefaultMaxPending
	}
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	return o
}

// hop is one retained event of a pending activation.
type hop struct {
	ts     int64
	arg    int64
	epoch  uint64 // engine epoch at feed time (meaningful on timeout-arm hops)
	kind   telemetry.Kind
	label  uint16
	track  uint16
	status uint8
}

// flowState is one unresolved activation. Finalized flows are recycled
// through the engine's freelist (next); their hop arrays, grown to at most
// MaxHops, survive recycling, so steady-state Feed does not allocate.
type flowState struct {
	flow uint32
	act  uint64 // full activation index (first non-zero Event.Act seen)
	hops []hop
	next *flowState
}

// hopKey names one ledger-entry population without resolving strings:
// either a budgeted segment span (seg=true, label) or a kind→kind
// transition outside every span.
type hopKey struct {
	seg      bool
	label    uint16
	from, to telemetry.Kind
}

// hopAgg is the constant-memory aggregate of one ledger-entry population.
type hopAgg struct {
	count   uint64 // ledger entries folded in (all flows)
	totalNS int64  // sum of entry deltas (all flows)
	blameNS int64  // sum of overrun contributions (missed flows only)
	overrun *livestats.Sketch
}

// segAgg is one segment's slack table.
type segAgg struct {
	label     uint16
	armed     uint64 // activations with an observed budget
	missed    uint64
	budgetNS  int64  // budget most recently seen in force
	epoch     uint64 // budget epoch most recently seen at arm time
	overrunNS int64  // Σ max(0, dwell − budget)
	dwell     *livestats.Sketch
}

// exemplar is one retained worst-miss activation.
type exemplar struct {
	flow     uint32
	act      uint64
	e2eNS    int64
	status   uint8
	epoch    uint64
	primary  uint16 // label of the most-overrun segment
	timeline []hop
}

// scopeAgg aggregates one flow scope (one chain).
type scopeAgg struct {
	scope      uint8
	flows      uint64
	missed     uint64
	skipped    uint64 // flows with < 2 hops (nothing to attribute)
	e2eNS      int64  // Σ end-to-end latency over attributed flows
	maxAct     uint64
	pending    []uint32 // unresolved flows of this scope, insertion order
	hops       map[hopKey]*hopAgg
	hopOrder   []hopKey
	segs       map[uint16]*segAgg
	segOrder   []uint16
	exemplars  []*exemplar // FlowWorse order, capped at TopK
	admissions uint64      // exemplar-store admissions (incl. later-evicted)
}

// Engine is the online attribution engine. All methods are safe for
// concurrent use; Feed is designed to run under the telemetry stream lock
// and therefore never calls back into the telemetry layer.
type Engine struct {
	mu       sync.Mutex
	opt      Options
	timebase string
	epoch    uint64 // largest budget-swap epoch seen
	flows    map[uint32]*flowState
	order    []uint32 // pending flows in insertion order (forced eviction)
	scopes   map[uint8]*scopeAgg
	scopeIDs []uint8

	finalized     uint64
	truncatedHops uint64
	forced        uint64

	// free recycles finalized flow records; spans is finalization scratch.
	free  *flowState
	spans []span

	// pendingExemplars buffers flight-recorder records for admitted
	// exemplars; FlushExemplars drains it outside every lock.
	pendingExemplars []telemetry.Event

	// bindings holds the metrics gauges of each registry PublishMetrics
	// has published into.
	bindings []*binding
}

// New creates an engine.
func New(opt Options) *Engine {
	return &Engine{
		opt:    opt.withDefaults(),
		flows:  map[uint32]*flowState{},
		scopes: map[uint8]*scopeAgg{},
	}
}

// SetTimebase records the timestamp domain of the fed events ("sim" or
// "wall"); it is carried into the snapshot for self-description.
func (e *Engine) SetTimebase(tb string) {
	e.mu.Lock()
	e.timebase = tb
	e.mu.Unlock()
}

// Feed absorbs one event. It is the observer callback for both
// StreamWriter.SetObserver and Recorder.SetObserver.
func (e *Engine) Feed(track uint16, ev telemetry.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()

	switch ev.Kind {
	case telemetry.KindBudgetSwap:
		if ev.Act > e.epoch {
			e.epoch = ev.Act
		}
		return
	case telemetry.KindBlameExemplar:
		return // the engine's own flight-recorder records
	}
	if ev.Flow == 0 {
		return
	}

	scopeID := telemetry.FlowScopeOf(ev.Flow)
	act := telemetry.FlowAct(ev.Flow)
	sc := e.scope(scopeID)

	// Activation progress finalizes flows that fell out of the reorder
	// window: every hop of activation a precedes the first event of a+W.
	if act > sc.maxAct {
		sc.maxAct = act
		e.sweepLocked(sc)
	}

	fs, ok := e.flows[ev.Flow]
	if !ok {
		fs = e.newFlow(ev.Flow)
		e.flows[ev.Flow] = fs
		e.order = append(e.order, ev.Flow)
		sc.pending = append(sc.pending, ev.Flow)
		e.evictLocked()
		if e.flows[ev.Flow] != fs {
			// A stale insertion-order entry of a re-created id named this
			// flow, and the eviction finalized it: the hop goes with it,
			// and the recycled record must stay untouched.
			return
		}
	}
	if fs.act == 0 && ev.Act != 0 {
		fs.act = ev.Act
	}
	if len(fs.hops) >= e.opt.MaxHops {
		e.truncatedHops++
		return
	}
	if len(fs.hops) == cap(fs.hops) {
		// Double the hop array, never past MaxHops: it outlives the flow, so
		// its capacity is part of the engine's memory bound.
		fs.hops = append(make([]hop, 0, min(max(2*cap(fs.hops), 8), e.opt.MaxHops)), fs.hops...)
	}
	fs.hops = append(fs.hops, hop{
		ts: ev.TS, arg: ev.Arg, epoch: e.epoch,
		kind: ev.Kind, label: ev.Label, track: track, status: ev.Status,
	})
}

// newFlow takes a flow record off the freelist, or allocates one.
func (e *Engine) newFlow(flow uint32) *flowState {
	fs := e.free
	if fs == nil {
		return &flowState{flow: flow}
	}
	e.free = fs.next
	fs.next = nil
	fs.flow = flow
	return fs
}

// Epoch returns the largest budget-table epoch the engine has observed
// (via KindBudgetSwap events); 0 before any swap.
func (e *Engine) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// Flush finalizes every still-pending activation, in insertion order. Call
// at end of run (and FromLog calls it at end of log) before Snapshot, so
// the tail of the run is attributed too.
func (e *Engine) Flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range e.order {
		if fs, ok := e.flows[id]; ok {
			e.finalizeLocked(fs)
		}
	}
	e.order = e.order[:0]
	for _, sc := range e.scopes {
		sc.pending = sc.pending[:0]
	}
}

// scope returns (creating) the aggregate of a flow scope; callers hold e.mu.
func (e *Engine) scope(id uint8) *scopeAgg {
	sc, ok := e.scopes[id]
	if !ok {
		sc = &scopeAgg{
			scope: id,
			hops:  map[hopKey]*hopAgg{},
			segs:  map[uint16]*segAgg{},
		}
		e.scopes[id] = sc
		e.scopeIDs = append(e.scopeIDs, id)
	}
	return sc
}

// sweepLocked finalizes the scope's flows whose activation fell at least
// Window behind the scope's newest activation.
func (e *Engine) sweepLocked(sc *scopeAgg) {
	kept := sc.pending[:0]
	for _, id := range sc.pending {
		fs, ok := e.flows[id]
		if !ok {
			continue // already force-finalized
		}
		if telemetry.FlowAct(id)+e.opt.Window <= sc.maxAct {
			e.finalizeLocked(fs)
			continue
		}
		kept = append(kept, id)
	}
	sc.pending = kept
	e.trimOrderLocked()
}

// trimOrderLocked drops finalized flows off the front of the global
// insertion-order list and compacts its backing array when mostly stale, so
// the list stays proportional to the live pending set on unbounded runs.
func (e *Engine) trimOrderLocked() {
	n := 0
	for n < len(e.order) {
		if _, ok := e.flows[e.order[n]]; ok {
			break
		}
		n++
	}
	e.popOrderLocked(n)
	if cap(e.order) > 4*e.opt.MaxPending && len(e.order) <= e.opt.MaxPending {
		e.order = append(make([]uint32, 0, 2*e.opt.MaxPending), e.order...)
	}
}

// popOrderLocked removes the first n entries of the insertion-order list by
// shifting the rest down, so appends keep reusing one backing array.
func (e *Engine) popOrderLocked(n int) {
	if n > 0 {
		e.order = e.order[:copy(e.order, e.order[n:])]
	}
}

// evictLocked force-finalizes the oldest pending flow when the pending cap
// is exceeded, keeping engine memory constant; callers hold e.mu.
func (e *Engine) evictLocked() {
	for len(e.flows) > e.opt.MaxPending {
		e.trimOrderLocked() // stale entries: already finalized by a sweep
		if len(e.order) == 0 {
			return
		}
		id := e.order[0]
		e.popOrderLocked(1)
		e.forced++
		e.finalizeLocked(e.flows[id])
	}
}

// finalizeLocked resolves one activation and recycles its flow record;
// callers hold e.mu.
func (e *Engine) finalizeLocked(fs *flowState) {
	delete(e.flows, fs.flow)
	e.finalized++
	e.attributeLocked(fs)
	fs.act = 0
	fs.hops = fs.hops[:0]
	fs.next = e.free
	e.free = fs
}

// attributeLocked sorts a finalized activation's hops, builds the slack
// ledger and folds it into the scope aggregates; callers hold e.mu.
func (e *Engine) attributeLocked(fs *flowState) {
	sc := e.scope(telemetry.FlowScopeOf(fs.flow))

	hops := fs.hops
	if len(hops) < 2 {
		sc.skipped++
		return
	}
	// Stable sort by timestamp only: equal-timestamp hops keep feed order,
	// which is identical online and offline by the observer contract.
	slices.SortStableFunc(hops, func(a, b hop) int { return cmp.Compare(a.ts, b.ts) })

	e2e := hops[len(hops)-1].ts - hops[0].ts
	act := fs.act
	if act == 0 {
		act = telemetry.FlowAct(fs.flow)
	}

	// Segment spans: [first ring-post-start, verdict] per segment label,
	// with the budget in force at arm time read off the arm event itself
	// (absolute deadline − span start = the monitored deadline d_mon that
	// epoch had staged for the segment).
	spans := segSpans(e.spans[:0], hops)
	e.spans = spans

	// Worst verdict across the activation's segments.
	worst := telemetry.StatusOK
	for i := range hops {
		if hops[i].kind == telemetry.KindVerdict && hops[i].status > worst {
			worst = hops[i].status
		}
	}
	missed := worst == telemetry.StatusMissed

	sc.flows++
	sc.e2eNS += e2e
	if missed {
		sc.missed++
	}

	// The ledger: consecutive-hop deltas telescope to exactly the
	// end-to-end latency — nothing lost, nothing double-counted. Entries
	// whose endpoints both lie inside a segment span fold into that
	// segment's population; the rest are kind→kind transitions.
	for i := 1; i < len(hops); i++ {
		delta := hops[i].ts - hops[i-1].ts
		key := hopKey{from: hops[i-1].kind, to: hops[i].kind}
		for j := range spans {
			if sp := &spans[j]; hops[i-1].ts >= sp.start && hops[i].ts <= sp.end {
				key = hopKey{seg: true, label: sp.label}
				sp.delta += delta
				break
			}
		}
		agg := sc.hop(key, e.opt.Alpha)
		agg.count++
		agg.totalNS += delta
		if missed && !key.seg {
			agg.blameNS += delta
			agg.overrun.Observe(float64(delta))
		}
	}

	// Per-segment slack accounting + the segment share of the blame: a
	// budgeted segment is blamed only for its overrun beyond the budget in
	// force when it was armed, not for its whole dwell.
	for _, sp := range spans {
		sa := sc.seg(sp.label, e.opt.Alpha)
		dwell := sp.end - sp.start
		sa.dwell.Observe(float64(dwell))
		if sp.hasBudget {
			sa.armed++
			sa.budgetNS = sp.budget
			sa.epoch = sp.epoch
		}
		if sp.missed {
			sa.missed++
		}
		over := dwell - sp.budget
		if !sp.hasBudget {
			over = sp.delta // unbudgeted span: blame the full dwell
		}
		if over < 0 {
			over = 0
		}
		sa.overrunNS += over
		if missed {
			agg := sc.hop(hopKey{seg: true, label: sp.label}, e.opt.Alpha)
			agg.blameNS += over
			agg.overrun.Observe(float64(over))
		}
	}

	if missed {
		e.admitExemplarLocked(sc, fs, act, e2e, worst, spans)
	}
}

// span is one segment's occupancy inside a single activation.
type span struct {
	label     uint16
	start     int64
	end       int64
	budget    int64
	delta     int64 // Σ ledger-entry deltas attributed to the span
	epoch     uint64
	hasBudget bool
	missed    bool
}

// findSpan returns the span of a segment label, or nil.
func findSpan(spans []span, label uint16) *span {
	for i := range spans {
		if spans[i].label == label {
			return &spans[i]
		}
	}
	return nil
}

// segSpans appends the per-segment spans of a sorted hop timeline to spans.
// The arms are read after every span exists: a wall-clock scan stamps an arm
// with the time it read before draining the start ring, so a start posted
// during that gap sorts after its own arm. The arm's Arg, the absolute
// deadline, sets the span's budget all the same.
func segSpans(spans []span, hops []hop) []span {
	for i := range hops {
		h := &hops[i]
		switch h.kind {
		case telemetry.KindRingPostStart:
			if findSpan(spans, h.label) == nil {
				spans = append(spans, span{label: h.label, start: h.ts, end: hops[len(hops)-1].ts})
			}
		case telemetry.KindVerdict:
			if sp := findSpan(spans, h.label); sp != nil {
				sp.end = h.ts
				if h.status == telemetry.StatusMissed {
					sp.missed = true
				}
			}
		}
	}
	for i := range hops {
		h := &hops[i]
		if h.kind != telemetry.KindTimeoutArm {
			continue
		}
		if sp := findSpan(spans, h.label); sp != nil && !sp.hasBudget {
			sp.budget = h.arg - sp.start
			sp.epoch = h.epoch
			sp.hasBudget = true
		}
	}
	// Deterministic span precedence for overlapping spans: by start time,
	// ties by label id.
	slices.SortStableFunc(spans, func(a, b span) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.label, b.label)
	})
	return spans
}

// hop returns (creating) a ledger-entry aggregate; callers hold e.mu.
func (sc *scopeAgg) hop(key hopKey, alpha float64) *hopAgg {
	agg, ok := sc.hops[key]
	if !ok {
		agg = &hopAgg{overrun: livestats.NewSketch(alpha)}
		sc.hops[key] = agg
		sc.hopOrder = append(sc.hopOrder, key)
	}
	return agg
}

// seg returns (creating) a segment slack row; callers hold e.mu.
func (sc *scopeAgg) seg(label uint16, alpha float64) *segAgg {
	sa, ok := sc.segs[label]
	if !ok {
		sa = &segAgg{label: label, dwell: livestats.NewSketch(alpha)}
		sc.segs[label] = sa
		sc.segOrder = append(sc.segOrder, label)
	}
	return sa
}

// admitExemplarLocked inserts a missed activation into the scope's top-K
// worst-exemplar store. Ordering and eviction are deterministic: worse =
// telemetry.FlowWorse (end-to-end desc, flow id asc) — the same rule the
// trace report's -top list uses, so online top-K and offline -top agree.
func (e *Engine) admitExemplarLocked(sc *scopeAgg, fs *flowState, act uint64, e2e int64, worst uint8, spans []span) {
	k := e.opt.TopK
	xs := sc.exemplars
	if len(xs) >= k && !telemetry.FlowWorse(e2e, fs.flow, xs[len(xs)-1].e2eNS, xs[len(xs)-1].flow) {
		return
	}
	var primary uint16
	var primaryOver int64 = -1
	var epoch uint64
	for _, sp := range spans {
		over := sp.end - sp.start - sp.budget
		if sp.hasBudget && sp.epoch > epoch {
			epoch = sp.epoch
		}
		if over > primaryOver {
			primaryOver = over
			primary = sp.label
		}
	}
	x := &exemplar{
		flow: fs.flow, act: act, e2eNS: e2e, status: worst, epoch: epoch,
		primary:  primary,
		timeline: append([]hop(nil), fs.hops...),
	}
	pos := len(xs)
	for pos > 0 && telemetry.FlowWorse(e2e, fs.flow, xs[pos-1].e2eNS, xs[pos-1].flow) {
		pos--
	}
	xs = append(xs, nil)
	copy(xs[pos+1:], xs[pos:])
	xs[pos] = x
	if len(xs) > k {
		xs = xs[:k]
	}
	sc.exemplars = xs
	sc.admissions++

	// Buffer the flight-recorder record; FlushExemplars appends it outside
	// the locks (an Append from here would re-enter the stream writer).
	e.pendingExemplars = append(e.pendingExemplars, telemetry.Event{
		TS:     fs.hops[len(fs.hops)-1].ts,
		Act:    act,
		Arg:    e2e,
		Flow:   0, // deliberately not part of the flow it describes
		Label:  primary,
		Kind:   telemetry.KindBlameExemplar,
		Status: worst,
	})
}

// FlushExemplars appends the buffered exemplar-admission records to the
// given flight-recorder track (conventionally named "blame-exemplar").
// It must be called from the track's owning goroutine, outside the stream
// lock — never from inside Feed. Records describe admissions; an exemplar
// later evicted by a worse one keeps its admission record, like any other
// flight-recorder history. A nil track just drops the buffer.
func (e *Engine) FlushExemplars(track *telemetry.Track) int {
	e.mu.Lock()
	evs := e.pendingExemplars
	e.pendingExemplars = nil
	e.mu.Unlock()
	for _, ev := range evs {
		track.Append(ev)
	}
	return len(evs)
}

func sketchQuantiles(sk *livestats.Sketch) (p50, p95, p99, max int64) {
	return nanToZero(sk.Quantile(0.50)), nanToZero(sk.Quantile(0.95)), nanToZero(sk.Quantile(0.99)), nanToZero(sk.Max())
}

// nanToZero truncates a sketch reading to nanoseconds; an empty sketch's
// NaN reads 0.
func nanToZero(v float64) int64 {
	if math.IsNaN(v) {
		return 0
	}
	return int64(v)
}
