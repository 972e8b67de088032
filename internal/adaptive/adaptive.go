// Package adaptive closes the loop between the live health layer and the
// budget solver: a controller periodically snapshots the livestats Set,
// re-solves the (m,k) budgeting problem on the observed quantiles, applies
// guardrails, and actuates the result through a monitor.BudgetTable — the
// hot-swappable deadline state every monitor reads per activation.
//
// The loop is deliberately conservative. Each tick either
//
//   - holds (all solved deadlines within the hysteresis band of the current
//     ones, or too few samples to trust the distribution),
//   - applies (the solved, clamped assignment still passes Verify and the
//     end-to-end budget after clamping),
//   - rejects as infeasible (the solver or the post-clamp invariant says no
//     assignment fits — the current table stays in force), or
//   - rolls back (the chain's burn state escalated to burning/violated since
//     the last actuation — the previous table is restored).
//
// Every outcome is recorded in the actuation history, exported as
// chainmon_budget_* gauges, and — for applied/rollback — emitted as one
// telemetry.KindBudgetSwap event per retimed segment. The controller never
// retimes in-flight activations: the BudgetTable's swap barrier guarantees
// each activation finishes under the deadline it started with.
package adaptive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"chainmon/internal/budget"
	"chainmon/internal/livestats"
	"chainmon/internal/monitor"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
	"chainmon/internal/weaklyhard"
)

// SegmentSpec declares one controlled segment: its chain position (specs
// are given in chain order — propagation makes order part of the problem)
// and the clamp range its monitored deadline may move in.
type SegmentSpec struct {
	Name        string
	Propagation int
	// Initial is the construction-time monitored deadline, the value the
	// controller assumes in force before its first actuation.
	Initial sim.Duration
	// Min/Max clamp every actuated deadline. Zero disables that bound.
	Min, Max sim.Duration
}

// Guardrails bounds how eagerly the controller actuates.
type Guardrails struct {
	// Hysteresis is the relative dead band: an actuation is held unless at
	// least one segment's solved deadline differs from its current one by
	// more than Hysteresis×current. 0 selects DefaultHysteresis; negative
	// disables the band.
	Hysteresis float64
	// MinSamples is the observation count below which a segment's live
	// distribution is not trusted: the segment keeps its current deadline
	// and its share of the end-to-end budget is reserved, not re-solved.
	// 0 selects DefaultMinSamples.
	MinSamples uint64
	// Margin is relative headroom added to every solved deadline before
	// clamping. It absorbs the sketch's α quantile error and keeps the
	// actuated deadline strictly above the observed maximum — without it a
	// hard-constraint solve lands exactly on the largest observed latency,
	// and the next activation at that latency knife-edges its deadline.
	// 0 selects DefaultMargin; negative disables.
	Margin float64
}

// Guardrail defaults: a 10% dead band, 16 observations before a segment's
// quantiles are considered representative, and 5% actuation headroom.
const (
	DefaultHysteresis = 0.10
	DefaultMinSamples = 16
	DefaultMargin     = 0.05
)

// Config wires a Controller.
type Config struct {
	Set   *livestats.Set       // live quantiles + burn states (required)
	Table *monitor.BudgetTable // actuation target (required)
	// Chain names the livestats chain scope whose burn state gates
	// rollback. Empty disables the rollback guard.
	Chain    string
	Segments []SegmentSpec // chain order (required, non-empty)
	// DEx, Be2e, Bseg and Constraint mirror budget.Problem: the uniform
	// exception-handling budget, the end-to-end budget over the extended
	// deadlines d = d_mon + d_ex, the optional per-segment cap, and the
	// chain's weakly-hard constraint.
	DEx        sim.Duration
	Be2e       sim.Duration
	Bseg       sim.Duration
	Constraint weaklyhard.Constraint
	Guard      Guardrails
	// TraceLen is the synthesized pseudo-trace resolution passed to the
	// live solver frontend (0 selects budget.DefaultLiveTraceLen).
	TraceLen int
	// Sink receives KindBudgetSwap events (track "budget") and the
	// chainmon_budget_* gauges. Nil stays dark, like every Attach.
	Sink *telemetry.Sink
}

// Actuation is one controller decision, kept in the history and surfaced
// on /health. Deadlines is the full monitored-deadline table after the
// decision (unchanged on held/infeasible), in nanoseconds.
type Actuation struct {
	Seq    int    `json:"seq"`
	AtNS   int64  `json:"at_ns"`
	Epoch  uint64 `json:"epoch"`  // table epoch staged by this actuation (0 when none)
	Result string `json:"result"` // "applied" | "held" | "infeasible" | "rollback"
	Reason string `json:"reason,omitempty"`
	// DeadlinesNS is the monitored-deadline table in force after this
	// actuation.
	DeadlinesNS DeadlineTable `json:"deadlines_ns"`
}

// DeadlineTable is a monitored-deadline table: one deadline per controlled
// segment, in nanoseconds, sorted by segment name. It marshals to the bytes
// encoding/json renders for the map from segment name to deadline — the
// /health wire format. The controller renders that object once, when it
// builds the table, so rendering an actuation copies bytes instead of
// reflecting over a map. Tables are immutable and shared.
type DeadlineTable struct {
	names []string // sorted segment names, shared by all of a controller's tables
	ns    []int64  // ns[i] is the deadline of names[i]
	raw   []byte   // the JSON object
}

// Len returns the number of segments in the table.
func (t DeadlineTable) Len() int { return len(t.ns) }

// At returns the i-th segment in name order and its deadline in nanoseconds.
func (t DeadlineTable) At(i int) (name string, ns int64) { return t.names[i], t.ns[i] }

// MarshalJSON returns the table as a JSON object keyed by segment name, in
// name order; the zero table marshals like a nil map.
func (t DeadlineTable) MarshalJSON() ([]byte, error) {
	if t.raw == nil {
		return []byte("null"), nil
	}
	return t.raw, nil
}

// Actuation results.
const (
	ResultApplied    = "applied"
	ResultHeld       = "held"
	ResultInfeasible = "infeasible"
	ResultRollback   = "rollback"
)

// maxHistory bounds the retained actuation history (the /health document
// embeds it; an unbounded history would grow a multi-day run's snapshot).
const maxHistory = 256

// The budget section is the value of a top-level /health field, so its
// closing brace sits one level deep, its fields two and each element of its
// arrays three.
const (
	sectionIndent = livestats.Indent
	fieldIndent   = sectionIndent + livestats.Indent
	elemIndent    = fieldIndent + livestats.Indent
)

// slabSize is the chunk retained actuation renderings are carved from: a
// few dozen renderings share one allocation.
const slabSize = 16 << 10

// Controller is the adaptive budget control loop. Tick is safe for
// concurrent use; on the sim timebase drive it from a kernel event
// (ScheduleSim) so runs stay deterministic.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	seq      int
	history  []record
	dropped  int // actuations evicted from history by the cap
	current  map[string]sim.Duration
	previous map[string]sim.Duration // last superseded table, rollback target
	lastBurn livestats.BurnState

	// names are the segment names in name order and keys their JSON
	// quotations, rendered once; table is current as a DeadlineTable.
	names []string
	keys  [][]byte
	table DeadlineTable

	// enc renders an actuation for /health into scratch, from where it is
	// copied into slab; see render.
	enc     *json.Encoder
	scratch bytes.Buffer
	slab    []byte

	track *telemetry.Track

	// The chainmon_budget_* metrics, bound in the Sink's registry by the
	// first actuation that sets them: the epoch and deadline gauges
	// (deadlines parallel to cfg.Segments) by the first one, each result's
	// counter by the first actuation with that result.
	epochGauge     *telemetry.Gauge
	deadlineGauges []*telemetry.Gauge
	actuations     map[string]*telemetry.Counter
}

// record is one retained actuation and its /health rendering, made by the
// first scrape that includes it and kept for the actuation's lifetime.
type record struct {
	act Actuation
	raw []byte
}

// New validates the config and creates a controller. It registers itself as
// the Set's budget provider, so /health documents carry the live deadline
// table and actuation history.
func New(cfg Config) (*Controller, error) {
	if cfg.Set == nil || cfg.Table == nil {
		return nil, fmt.Errorf("adaptive: Set and Table are required")
	}
	if len(cfg.Segments) == 0 {
		return nil, fmt.Errorf("adaptive: no segments to control")
	}
	if cfg.Guard.Hysteresis == 0 {
		cfg.Guard.Hysteresis = DefaultHysteresis
	}
	if cfg.Guard.MinSamples == 0 {
		cfg.Guard.MinSamples = DefaultMinSamples
	}
	if cfg.Guard.Margin == 0 {
		cfg.Guard.Margin = DefaultMargin
	}
	c := &Controller{cfg: cfg, current: map[string]sim.Duration{}}
	seen := map[string]bool{}
	for _, s := range cfg.Segments {
		if s.Name == "" || s.Initial <= 0 {
			return nil, fmt.Errorf("adaptive: segment %+v needs a name and a positive initial deadline", s)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("adaptive: duplicate segment %q", s.Name)
		}
		seen[s.Name] = true
		c.current[s.Name] = s.Initial
		c.names = append(c.names, s.Name)
	}
	slices.Sort(c.names)
	for _, name := range c.names {
		key, _ := json.Marshal(name) // a string always marshals
		c.keys = append(c.keys, key)
	}
	c.table = c.deadlineTable(c.current)
	if cfg.Sink != nil {
		c.track = cfg.Sink.Rec.Track("budget")
	}
	c.enc = json.NewEncoder(&c.scratch)
	c.enc.SetIndent(elemIndent, livestats.Indent)
	cfg.Set.SetBudgetProvider(c.appendHealth)
	return c, nil
}

// Tick runs one control iteration at the given timestamp (virtual or wall
// nanoseconds) and returns the recorded actuation.
func (c *Controller) Tick(nowNS int64) Actuation {
	c.mu.Lock()
	defer c.mu.Unlock()

	act := Actuation{Seq: c.seq, AtNS: nowNS}
	c.seq++

	// Rollback guard: if the chain's burn state escalated to burning or
	// worse since the previous tick and there is an earlier table to return
	// to, restore it before anything else — the last actuation is the prime
	// suspect for the escalation.
	burn := c.chainBurn()
	if burn >= livestats.StateBurning && burn > c.lastBurn && c.previous != nil {
		c.lastBurn = burn
		act.Result = ResultRollback
		act.Reason = fmt.Sprintf("chain %q burn state escalated to %v", c.cfg.Chain, burn)
		c.stageLocked(c.previous, &act)
		c.current, c.previous = c.previous, nil
		c.table = c.deadlineTable(c.current)
		return c.recordLocked(act)
	}
	c.lastBurn = burn

	// Burn hold: while the chain is consuming its miss budget, the live
	// latencies of missing activations are censored at their deadlines (the
	// exception handler resolves them, so the sketch records
	// handler-completion latency, not the true latency that would have
	// been). Re-solving on censored data would re-tighten toward the very
	// deadline that is being missed — hold until the window recovers.
	if burn >= livestats.StateWarning {
		act.Result = ResultHeld
		act.Reason = fmt.Sprintf("chain %q burn state %v: latencies censored, holding", c.cfg.Chain, burn)
		return c.recordLocked(act)
	}

	// Partition segments into observed (re-solved) and reserved (too few
	// samples — keep the current deadline and subtract its extended share
	// from the end-to-end budget). Iteration strictly follows cfg.Segments
	// order; determinism of the whole loop depends on it.
	var live []budget.LiveSegment
	reservedNS := int64(0)
	for _, spec := range c.cfg.Segments {
		scope := c.cfg.Set.Segment(spec.Name, weaklyhard.Constraint{})
		if n := scope.Count(); n < c.cfg.Guard.MinSamples {
			reservedNS += int64(c.current[spec.Name] + c.cfg.DEx)
			continue
		}
		pts := make([]budget.QuantilePoint, 0, 4)
		for _, q := range []float64{0.50, 0.95, 0.99, 1.00} {
			if v, ok := scope.QuantileOK(q); ok {
				pts = append(pts, budget.QuantilePoint{Q: q, NS: v})
			}
		}
		live = append(live, budget.LiveSegment{
			Name:        spec.Name,
			Propagation: spec.Propagation,
			Count:       scope.Count(),
			Points:      pts,
		})
	}
	if len(live) == 0 {
		act.Result = ResultHeld
		act.Reason = fmt.Sprintf("no segment reached %d samples", c.cfg.Guard.MinSamples)
		return c.recordLocked(act)
	}

	lp := budget.LiveProblem{
		Segments:   live,
		DEx:        int64(c.cfg.DEx),
		Be2e:       int64(c.cfg.Be2e) - reservedNS,
		Bseg:       int64(c.cfg.Bseg),
		Constraint: c.cfg.Constraint,
		TraceLen:   c.cfg.TraceLen,
	}
	p, _, err := lp.Build()
	if err != nil {
		act.Result = ResultHeld
		act.Reason = err.Error()
		return c.recordLocked(act)
	}
	ok, asn := budget.Schedulable(p)
	if !ok {
		act.Result = ResultInfeasible
		act.Reason = asn.Reason
		return c.recordLocked(act)
	}

	// Map solved extended deadlines back to monitored deadlines and clamp.
	next := make(map[string]sim.Duration, len(c.current))
	for name, d := range c.current {
		next[name] = d
	}
	clampedExt := make([]int64, len(p.Segments))
	changed := false
	for i, seg := range p.Segments {
		spec := c.spec(seg.Name)
		dmon := sim.Duration(asn.Deadlines[i]) - c.cfg.DEx
		if c.cfg.Guard.Margin > 0 {
			dmon += sim.Duration(float64(dmon) * c.cfg.Guard.Margin)
		}
		if spec.Min > 0 && dmon < spec.Min {
			dmon = spec.Min
		}
		if spec.Max > 0 && dmon > spec.Max {
			dmon = spec.Max
		}
		if dmon <= 0 {
			act.Result = ResultInfeasible
			act.Reason = fmt.Sprintf("segment %q solved deadline %v leaves no monitoring budget", seg.Name, sim.Duration(asn.Deadlines[i]))
			return c.recordLocked(act)
		}
		clampedExt[i] = int64(dmon + c.cfg.DEx)
		next[seg.Name] = dmon
		cur := c.current[seg.Name]
		if delta := dmon - cur; delta > hystBand(cur, c.cfg.Guard.Hysteresis) || -delta > hystBand(cur, c.cfg.Guard.Hysteresis) {
			changed = true
		}
	}
	if !changed {
		act.Result = ResultHeld
		act.Reason = "all deadlines within hysteresis band"
		return c.recordLocked(act)
	}

	// Post-clamp invariant: clamping moved deadlines off the solver's
	// assignment, so re-verify the (m,k) feasibility on the clamped values
	// and re-check the end-to-end budget including the reserved segments.
	if vok, why := p.Verify(clampedExt); !vok {
		act.Result = ResultInfeasible
		act.Reason = "post-clamp: " + why
		return c.recordLocked(act)
	}
	total := reservedNS
	for _, d := range clampedExt {
		total += d
	}
	if c.cfg.Be2e > 0 && total > int64(c.cfg.Be2e) {
		act.Result = ResultInfeasible
		act.Reason = fmt.Sprintf("post-clamp: extended deadlines sum %v exceeds end-to-end budget %v", sim.Duration(total), c.cfg.Be2e)
		return c.recordLocked(act)
	}

	act.Result = ResultApplied
	c.stageLocked(next, &act)
	c.previous, c.current = c.current, next
	c.table = c.deadlineTable(c.current)
	return c.recordLocked(act)
}

// hystBand returns the absolute dead-band width around cur.
func hystBand(cur sim.Duration, h float64) sim.Duration {
	if h <= 0 {
		return 0
	}
	return sim.Duration(float64(cur) * h)
}

func (c *Controller) spec(name string) SegmentSpec {
	for _, s := range c.cfg.Segments {
		if s.Name == name {
			return s
		}
	}
	return SegmentSpec{}
}

// chainBurn reads the rollback-gating burn state (StateOK when no chain
// scope is configured).
func (c *Controller) chainBurn() livestats.BurnState {
	if c.cfg.Chain == "" {
		return livestats.StateOK
	}
	return c.cfg.Set.Chain(c.cfg.Chain, weaklyhard.Constraint{}).State()
}

// stageLocked publishes table onto the BudgetTable and emits the per-segment
// swap telemetry. Updates are staged in cfg.Segments order (full snapshot —
// the table itself versions cumulatively).
func (c *Controller) stageLocked(table map[string]sim.Duration, act *Actuation) {
	updates := make([]monitor.DeadlineUpdate, 0, len(c.cfg.Segments))
	for _, spec := range c.cfg.Segments {
		updates = append(updates, monitor.DeadlineUpdate{Segment: spec.Name, DMon: table[spec.Name]})
	}
	act.Epoch = c.cfg.Table.Stage(updates)
	if c.track != nil {
		for _, spec := range c.cfg.Segments {
			if table[spec.Name] == c.current[spec.Name] {
				continue // only retimed segments get an event
			}
			c.track.Append(telemetry.Event{
				TS:    act.AtNS,
				Act:   act.Epoch,
				Arg:   int64(table[spec.Name]),
				Kind:  telemetry.KindBudgetSwap,
				Label: c.cfg.Sink.Rec.Intern(spec.Name),
			})
		}
	}
}

// deadlineTable renders a deadline map as a DeadlineTable.
func (c *Controller) deadlineTable(table map[string]sim.Duration) DeadlineTable {
	t := DeadlineTable{names: c.names, ns: make([]int64, len(c.names))}
	t.raw = append(t.raw, '{')
	for i, name := range c.names {
		t.ns[i] = int64(table[name])
		if i > 0 {
			t.raw = append(t.raw, ',')
		}
		t.raw = append(append(t.raw, c.keys[i]...), ':')
		t.raw = strconv.AppendInt(t.raw, t.ns[i], 10)
	}
	t.raw = append(t.raw, '}')
	return t
}

// recordLocked finalizes act (snapshotting the in-force table), appends it
// to the bounded history, refreshes the gauges, and returns it.
func (c *Controller) recordLocked(act Actuation) Actuation {
	act.DeadlinesNS = c.table
	c.history = append(c.history, record{act: act})
	if len(c.history) > maxHistory {
		drop := len(c.history) - maxHistory
		c.history = append(c.history[:0], c.history[drop:]...)
		c.dropped += drop
	}
	if c.cfg.Sink != nil {
		c.publishLocked(act.Result)
	}
	return act
}

// publishLocked refreshes the chainmon_budget_* metrics after an actuation
// with the given result, binding each on first use; callers hold c.mu.
func (c *Controller) publishLocked(result string) {
	reg := c.cfg.Sink.Reg
	if c.epochGauge == nil {
		c.epochGauge = reg.Gauge("chainmon_budget_epoch",
			"Epoch of the most recently staged deadline table (0: construction-time deadlines still in force).")
		for _, spec := range c.cfg.Segments {
			c.deadlineGauges = append(c.deadlineGauges, reg.Gauge("chainmon_budget_deadline_ns",
				"Monitored deadline currently in force for a controlled segment, in nanoseconds.",
				telemetry.L("segment", spec.Name)...))
		}
		c.actuations = map[string]*telemetry.Counter{}
	}
	c.epochGauge.Set(int64(c.cfg.Table.Epoch()))
	for i, spec := range c.cfg.Segments {
		c.deadlineGauges[i].Set(int64(c.current[spec.Name]))
	}
	ctr := c.actuations[result]
	if ctr == nil {
		ctr = reg.Counter("chainmon_budget_actuations_total",
			"Adaptive budget control iterations by outcome.",
			telemetry.L("result", result)...)
		c.actuations[result] = ctr
	}
	ctr.Inc()
}

// History returns a copy of the retained actuation history.
func (c *Controller) History() []Actuation {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.history) == 0 {
		return nil
	}
	out := make([]Actuation, len(c.history))
	for i := range c.history {
		out[i] = c.history[i].act
	}
	return out
}

// Deadlines returns the monitored deadlines the controller believes in
// force (construction-time initials until the first applied actuation).
func (c *Controller) Deadlines() map[string]sim.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]sim.Duration, len(c.current))
	for k, v := range c.current {
		out[k] = v
	}
	return out
}

// appendHealth appends the /health "budget" section (registered on the Set
// by New): the epochs, the table in force and the retained history, laid
// out as the document carries it. Each actuation is rendered once, by the
// first scrape that includes it; later scrapes copy that rendering.
func (c *Controller) appendHealth(dst []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	dst = append(dst, "{\n"+fieldIndent+`"epoch": `...)
	dst = strconv.AppendUint(dst, c.cfg.Table.Epoch(), 10)
	dst = append(dst, ",\n"+fieldIndent+`"applied_epoch": `...)
	dst = strconv.AppendUint(dst, c.cfg.Table.AppliedEpoch(), 10)
	dst = append(dst, ",\n"+fieldIndent+`"deadlines_ns": {`...)
	for i, key := range c.keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, "\n"+elemIndent...), key...), ": "...)
		dst = strconv.AppendInt(dst, c.table.ns[i], 10)
	}
	dst = append(dst, "\n"+fieldIndent+"},\n"+fieldIndent+`"actuations": `...)
	if len(c.history) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range c.history {
			r := &c.history[i]
			if r.raw == nil {
				r.raw = c.render(&r.act)
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(append(dst, "\n"+elemIndent...), r.raw...)
		}
		dst = append(dst, "\n"+fieldIndent+"]"...)
	}
	if c.dropped > 0 {
		dst = append(dst, ",\n"+fieldIndent+`"dropped_history": `...)
		dst = strconv.AppendInt(dst, int64(c.dropped), 10)
	}
	return append(dst, "\n"+sectionIndent+"}"...)
}

// render returns encoding/json's rendering of act as an element of the
// section's actuations array, carved from the controller's slab. The
// encoder is warm after the first call, and act is passed by pointer, so
// its deadline table is copied through MarshalJSON without boxing.
func (c *Controller) render(act *Actuation) []byte {
	c.scratch.Reset()
	if err := c.enc.Encode(act); err != nil {
		// Integers, strings and a pre-rendered table always encode.
		panic(fmt.Sprintf("adaptive: rendering actuation %d: %v", act.Seq, err))
	}
	raw := c.scratch.Bytes()
	raw = raw[:len(raw)-1] // Encode's trailing newline
	if cap(c.slab)-len(c.slab) < len(raw) {
		c.slab = make([]byte, 0, max(slabSize, len(raw)))
	}
	start := len(c.slab)
	c.slab = append(c.slab, raw...)
	return c.slab[start:len(c.slab):len(c.slab)]
}

// ScheduleSim drives the controller from a simulation kernel: one Tick
// every interval, starting at interval, stopping after the last tick at or
// before horizon. Being an ordinary kernel event makes the whole control
// loop part of the deterministic schedule — same seed, same actuation
// sequence, byte for byte.
func (c *Controller) ScheduleSim(k *sim.Kernel, interval sim.Duration, horizon sim.Time) {
	if interval <= 0 {
		return
	}
	var step func()
	step = func() {
		c.Tick(int64(k.Now()))
		if next := k.Now().Add(interval); next <= horizon {
			k.At(next, step)
		}
	}
	if first := sim.Time(0).Add(interval); first <= horizon {
		k.At(first, step)
	}
}

// StartWall drives the controller from wall time: one Tick every interval
// on a background goroutine. The returned stop function blocks until the
// loop exits; it is idempotent.
func (c *Controller) StartWall(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				c.Tick(now.UnixNano())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}
