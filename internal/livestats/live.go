package livestats

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"chainmon/internal/telemetry"
	"chainmon/internal/weaklyhard"
)

// Set is the live health surface of one monitor process: a latency sketch
// and (m,k) SLO per monitored segment and per chain, plus drop-total
// sources (flight recorder, stream sink). It is fed from the monitor hot
// path on every resolved activation and read concurrently by the /metrics
// and /health endpoints; one mutex guards everything — the critical
// sections are a handful of map increments, far below the microsecond
// posting overheads the paper measures.
type Set struct {
	mu       sync.Mutex
	alpha    float64
	timebase string
	scopes   map[string]*Scope
	sorted   []*Scope                // by kind (chains first), then by name
	drops    []dropSource            // by name; equal names in registration order
	budget   func(dst []byte) []byte // adaptive-controller /health section, nil = absent
	blame    func() any              // blame-engine /health section, nil = absent
	meta     func() any              // run self-description /health section, nil = absent
	status   []statusGauge           // chainmon_live_status, one per registry
}

type dropSource struct {
	name string
	fn   func() uint64
}

// Scope is the live state of one monitored scope (a segment or a chain):
// a latency sketch, an optional ring-drain latency sketch, and an optional
// (m,k) SLO tracker.
type Scope struct {
	set    *Set
	name   string
	kind   string // "segment" or "chain"
	lat    *Sketch
	drain  *Sketch
	slo    *SLO
	gauges []*scopeGauges // one per registry the scope was published into
}

// NewSet creates an empty set whose sketches use relative accuracy alpha
// (0 selects DefaultAlpha).
func NewSet(alpha float64) *Set {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	return &Set{alpha: alpha, scopes: map[string]*Scope{}}
}

// Alpha returns the relative accuracy of the set's sketches.
func (s *Set) Alpha() float64 { return s.alpha }

// SetTimebase records which timebase ("sim" or "wall") feeds the set, for
// the /health document.
func (s *Set) SetTimebase(tb string) {
	s.mu.Lock()
	s.timebase = tb
	s.mu.Unlock()
}

// Segment returns (creating on first use) the live scope for a segment. A
// valid constraint attaches an SLO tracker; an invalid one (e.g. the zero
// Constraint on unconstrained segments) leaves the scope quantiles-only.
func (s *Set) Segment(name string, c weaklyhard.Constraint) *Scope {
	return s.scope(name, "segment", c)
}

// Chain returns (creating on first use) the live scope for a chain's
// end-to-end latency and (m,k) window.
func (s *Set) Chain(name string, c weaklyhard.Constraint) *Scope {
	return s.scope(name, "chain", c)
}

func (s *Set) scope(name, kind string, c weaklyhard.Constraint) *Scope {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := kind + "/" + name
	if sc, ok := s.scopes[key]; ok {
		if sc.slo == nil && c.Valid() {
			sc.slo = NewSLO(c)
		}
		return sc
	}
	sc := &Scope{set: s, name: name, kind: kind, lat: NewSketch(s.alpha)}
	if c.Valid() {
		sc.slo = NewSLO(c)
	}
	s.scopes[key] = sc
	i, _ := slices.BinarySearchFunc(s.sorted, sc, func(a, b *Scope) int {
		return cmp.Or(strings.Compare(a.kind, b.kind), strings.Compare(a.name, b.name))
	})
	s.sorted = slices.Insert(s.sorted, i, sc)
	return sc
}

// Indent is the /health document's indentation per nesting level.
const Indent = "  "

// SetBudgetProvider registers the adaptive budget controller's /health
// section provider. fn appends the section to dst as one JSON value, laid
// out exactly as the document carries it: the value of a top-level field,
// as json.Indent(dst, compact, Indent, Indent) lays it out, with strings
// HTML-escaped as encoding/json escapes them. The bytes must be
// deterministic for a given controller state. fn is called outside the
// set's lock so the provider may lock its own state.
func (s *Set) SetBudgetProvider(fn func(dst []byte) []byte) {
	s.mu.Lock()
	s.budget = fn
	s.mu.Unlock()
}

// SetBlameProvider registers the blame engine's /health section provider
// (a blame.Doc snapshot). Like the budget provider it is fetched outside
// the set's lock, so the engine may lock its own state.
func (s *Set) SetBlameProvider(fn func() any) {
	s.mu.Lock()
	s.blame = fn
	s.mu.Unlock()
}

// SetMetaProvider registers the run self-description /health section
// provider (build version, scenario, uptime, budget epoch). Fetched
// outside the set's lock.
func (s *Set) SetMetaProvider(fn func() any) {
	s.mu.Lock()
	s.meta = fn
	s.mu.Unlock()
}

// AddDropSource registers a named drop-total source (e.g. the flight
// recorder's dropped-events count or the stream sink's drop counter) to
// surface on /health.
func (s *Set) AddDropSource(name string, fn func() uint64) {
	s.mu.Lock()
	i := len(s.drops)
	for i > 0 && s.drops[i-1].name > name {
		i--
	}
	s.drops = slices.Insert(s.drops, i, dropSource{name, fn})
	s.mu.Unlock()
}

// Observe records one resolved activation: its latency in nanoseconds and
// whether it missed its deadline. It slides the scope's (m,k) window and
// returns the resulting burn state (StateOK when the scope has no SLO).
func (sc *Scope) Observe(latencyNS float64, miss bool) BurnState {
	sc.set.mu.Lock()
	defer sc.set.mu.Unlock()
	sc.lat.Observe(latencyNS)
	if sc.slo != nil {
		return sc.slo.Record(miss)
	}
	return StateOK
}

// Record slides the (m,k) window without a latency sample, for resolutions
// that produced no measurable latency (propagated-in activations that never
// started at this scope).
func (sc *Scope) Record(miss bool) BurnState {
	sc.set.mu.Lock()
	defer sc.set.mu.Unlock()
	if sc.slo != nil {
		return sc.slo.Record(miss)
	}
	return StateOK
}

// ObserveDrain records one event-ring drain latency (runtime-hook feed),
// kept in a separate sketch from the verdict latencies.
func (sc *Scope) ObserveDrain(ns float64) {
	sc.set.mu.Lock()
	defer sc.set.mu.Unlock()
	if sc.drain == nil {
		sc.drain = NewSketch(sc.set.alpha)
	}
	sc.drain.Observe(ns)
}

// Quantile returns the scope's live latency quantile estimate.
func (sc *Scope) Quantile(q float64) float64 {
	sc.set.mu.Lock()
	defer sc.set.mu.Unlock()
	return sc.lat.Quantile(q)
}

// QuantileOK is Quantile with an explicit emptiness signal: ok is false
// when the scope has observed no latency yet. Budget consumers must use
// this form so unobserved scopes are skipped, not solved on zeros.
func (sc *Scope) QuantileOK(q float64) (float64, bool) {
	sc.set.mu.Lock()
	defer sc.set.mu.Unlock()
	return sc.lat.QuantileOK(q)
}

// Count returns how many latencies the scope has observed.
func (sc *Scope) Count() uint64 {
	sc.set.mu.Lock()
	defer sc.set.mu.Unlock()
	return sc.lat.Count()
}

// State returns the scope's current burn state (StateOK without an SLO).
func (sc *Scope) State() BurnState {
	sc.set.mu.Lock()
	defer sc.set.mu.Unlock()
	if sc.slo == nil {
		return StateOK
	}
	return sc.slo.State()
}

// QuantileSnapshot is the /health view of one sketch.
type QuantileSnapshot struct {
	Count   uint64  `json:"count"`
	Buckets int     `json:"buckets"`
	P50NS   float64 `json:"p50_ns"`
	P95NS   float64 `json:"p95_ns"`
	P99NS   float64 `json:"p99_ns"`
	MaxNS   float64 `json:"max_ns"`
}

func snapshotSketch(sk *Sketch) QuantileSnapshot {
	qs := QuantileSnapshot{Count: sk.Count(), Buckets: sk.Buckets()}
	if sk.Count() > 0 {
		qs.P50NS = sk.Quantile(0.5)
		qs.P95NS = sk.Quantile(0.95)
		qs.P99NS = sk.Quantile(0.99)
		qs.MaxNS = sk.Max()
	}
	return qs
}

// ScopeHealth is the /health view of one scope.
type ScopeHealth struct {
	Latency QuantileSnapshot  `json:"latency"`
	Drain   *QuantileSnapshot `json:"drain,omitempty"`
	SLO     *SLOSnapshot      `json:"slo,omitempty"`
}

// Health is the full /health JSON document.
type Health struct {
	Status   string                 `json:"status"` // worst burn state across all SLOs
	Timebase string                 `json:"timebase,omitempty"`
	Alpha    float64                `json:"sketch_alpha"`
	Segments map[string]ScopeHealth `json:"segments"`
	Chains   map[string]ScopeHealth `json:"chains"`
	Drops    map[string]uint64      `json:"drops,omitempty"`
	// Budget is the adaptive budget controller's self-description (current
	// deadline table, epoch, actuation history) as the budget provider
	// renders it, when one is registered.
	Budget json.RawMessage `json:"budget,omitempty"`
	// Blame is the blame engine's attribution snapshot (a blame.Doc),
	// filled by the blame provider when one is registered. Typed as any
	// because livestats sits below the engine in the dependency order.
	Blame any `json:"blame,omitempty"`
	// Meta is the run's self-description (build version, scenario name,
	// uptime, current budget epoch), filled by the meta provider.
	// Consumers that solve over /health documents ignore it.
	Meta any `json:"meta,omitempty"`
}

// Health captures a point-in-time snapshot of the whole set. Map keys are
// scope names; encoding/json renders maps with sorted keys, so the
// document is deterministic. json.MarshalIndent(h, "", Indent) plus a
// newline is the document the Handler serves, byte for byte.
func (s *Set) Health() Health {
	s.mu.Lock()
	h := Health{
		Status:   s.worstLocked().String(),
		Timebase: s.timebase,
		Alpha:    s.alpha,
		Segments: map[string]ScopeHealth{},
		Chains:   map[string]ScopeHealth{},
	}
	for _, sc := range s.sorted {
		sh := ScopeHealth{Latency: snapshotSketch(sc.lat)}
		if sc.drain != nil {
			d := snapshotSketch(sc.drain)
			sh.Drain = &d
		}
		if sc.slo != nil {
			ss := sc.slo.Snapshot()
			sh.SLO = &ss
		}
		if sc.kind == "chain" {
			h.Chains[sc.name] = sh
		} else {
			h.Segments[sc.name] = sh
		}
	}
	if len(s.drops) > 0 {
		h.Drops = map[string]uint64{}
		for _, d := range s.drops {
			h.Drops[d.name] += d.fn()
		}
	}
	budget, blame, meta := s.budget, s.blame, s.meta
	s.mu.Unlock()
	// The section providers run outside the lock: each locks its own state.
	if budget != nil {
		h.Budget = budget(nil)
	}
	if blame != nil {
		h.Blame = blame()
	}
	if meta != nil {
		h.Meta = meta()
	}
	return h
}

// worstLocked returns the max burn state across all SLO-tracked scopes.
func (s *Set) worstLocked() BurnState {
	worst := StateOK
	for _, sc := range s.sorted {
		if sc.slo == nil {
			continue
		}
		if st := sc.slo.State(); st > worst {
			worst = st
		}
	}
	return worst
}

// Status returns the overall burn state (the /health "status" field).
func (s *Set) Status() BurnState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.worstLocked()
}

// Handler returns an http.Handler serving the Health document as JSON, for
// mounting at /health. Degraded states still answer 200 — the document is
// the signal; 5xx is reserved for a monitor that cannot answer at all,
// such as one whose provider returned a value encoding/json rejects. The
// document is assembled in full before its first byte is written, and no
// lock is held across the write.
func (s *Set) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hw := healthWriters.Get().(*healthWriter)
		defer healthWriters.Put(hw)
		doc, err := hw.render(s)
		if err != nil {
			http.Error(w, "health: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc) // a failed write means the client has gone
	})
}

// healthWriter assembles /health documents. Its buffer and its section
// encoder's indent buffer outlive a scrape, so a warm scrape regrows
// nothing; a pool of them serves concurrent scrapes.
type healthWriter struct {
	buf     []byte
	section *json.Encoder // a section that cannot render itself, from depth 1
}

// Write appends the section encoder's output to the document.
func (hw *healthWriter) Write(p []byte) (int, error) {
	hw.buf = append(hw.buf, p...)
	return len(p), nil
}

var healthWriters = sync.Pool{New: func() any {
	hw := &healthWriter{}
	hw.section = json.NewEncoder(hw)
	hw.section.SetIndent(Indent, Indent)
	return hw
}}

// jsonAppender is a /health section value that renders itself: AppendJSON
// appends to dst the bytes json.MarshalIndent(v, prefix, indent) returns.
type jsonAppender interface {
	AppendJSON(dst []byte, prefix, indent string) []byte
}

// render assembles s's /health document: the top-level fields straight
// from the set's state, then each provider section as the value of its
// field. The budget provider appends its section already laid out, a
// section value with an AppendJSON method renders itself one level deep,
// and any other (meta) goes through encoding/json. The result equals
// json.MarshalIndent(s.Health(), "", Indent) plus a newline, and is valid
// until hw's next render.
func (hw *healthWriter) render(s *Set) ([]byte, error) {
	s.mu.Lock()
	b, err := s.appendTopLocked(hw.buf[:0])
	budget, blame, meta := s.budget, s.blame, s.meta
	s.mu.Unlock()
	hw.buf = b
	if err != nil {
		return nil, err
	}
	if budget != nil {
		hw.buf = budget(append(hw.buf, ","+nl1+`"budget": `...))
	}
	for _, sec := range [...]struct {
		name string
		fn   func() any
	}{{"blame", blame}, {"meta", meta}} {
		if sec.fn == nil {
			continue
		}
		v := sec.fn()
		if v == nil {
			continue // omitted, like the field's omitempty
		}
		hw.buf = append(hw.buf, ","+nl1+`"`...)
		hw.buf = append(append(hw.buf, sec.name...), `": `...)
		if a, ok := v.(jsonAppender); ok {
			hw.buf = a.AppendJSON(hw.buf, Indent, Indent)
			continue
		}
		if err := hw.section.Encode(v); err != nil {
			return nil, fmt.Errorf("%s section: %w", sec.name, err)
		}
		hw.buf = hw.buf[:len(hw.buf)-1] // Encode's trailing newline
	}
	hw.buf = append(hw.buf, "\n}\n"...)
	return hw.buf, nil
}

// A newline and the indentation of the document's nesting levels 1 to 4.
const (
	nl1 = "\n" + Indent
	nl2 = nl1 + Indent
	nl3 = nl2 + Indent
	nl4 = nl3 + Indent
)

// appendTopLocked appends the document's opening brace and its top-level
// fields (status, timebase, sketch_alpha, segments and chains by name,
// drops) as json.MarshalIndent(s.Health(), "", Indent) lays them out. A
// float encoding/json rejects fails it with encoding/json's error. Callers
// hold s.mu.
func (s *Set) appendTopLocked(b []byte) ([]byte, error) {
	b = append(b, "{"+nl1+`"status": `...)
	b = AppendJSONString(b, s.worstLocked().String())
	if s.timebase != "" {
		b = AppendJSONString(append(b, ","+nl1+`"timebase": `...), s.timebase)
	}
	b, err := AppendJSONFloat(append(b, ","+nl1+`"sketch_alpha": `...), s.alpha)
	if err != nil {
		return b, err
	}
	// s.sorted holds the chains first, then the segments, each by name.
	split := 0
	for split < len(s.sorted) && s.sorted[split].kind == "chain" {
		split++
	}
	if b, err = appendScopes(append(b, ","+nl1+`"segments": `...), s.sorted[split:]); err != nil {
		return b, err
	}
	if b, err = appendScopes(append(b, ","+nl1+`"chains": `...), s.sorted[:split]); err != nil {
		return b, err
	}
	if len(s.drops) > 0 {
		b = append(b, ","+nl1+`"drops": {`...)
		for i := 0; i < len(s.drops); {
			if i > 0 {
				b = append(b, ',')
			}
			name := s.drops[i].name
			var n uint64
			for ; i < len(s.drops) && s.drops[i].name == name; i++ {
				n += s.drops[i].fn()
			}
			b = append(AppendJSONString(append(b, nl2...), name), ": "...)
			b = strconv.AppendUint(b, n, 10)
		}
		b = append(b, nl1+"}"...)
	}
	return b, nil
}

// appendScopes appends the name → ScopeHealth object of scopes, sorted by
// name, as the value of a top-level field.
func appendScopes(b []byte, scopes []*Scope) ([]byte, error) {
	if len(scopes) == 0 {
		return append(b, "{}"...), nil
	}
	b = append(b, '{')
	var err error
	for i, sc := range scopes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(AppendJSONString(append(b, nl2...), sc.name), ": {"+nl3+`"latency": `...)
		if b, err = appendQuantiles(b, sc.lat); err != nil {
			return b, err
		}
		if sc.drain != nil {
			if b, err = appendQuantiles(append(b, ","+nl3+`"drain": `...), sc.drain); err != nil {
				return b, err
			}
		}
		if sc.slo != nil {
			if b, err = appendSLO(append(b, ","+nl3+`"slo": `...), sc.slo.Snapshot()); err != nil {
				return b, err
			}
		}
		b = append(b, nl2+"}"...)
	}
	return append(b, nl1+"}"...), nil
}

// appendQuantiles appends a sketch's QuantileSnapshot as the value of a
// scope's field.
func appendQuantiles(b []byte, sk *Sketch) ([]byte, error) {
	qs := snapshotSketch(sk)
	b = strconv.AppendUint(append(b, "{"+nl4+`"count": `...), qs.Count, 10)
	b = strconv.AppendInt(append(b, ","+nl4+`"buckets": `...), int64(qs.Buckets), 10)
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{"," + nl4 + `"p50_ns": `, qs.P50NS},
		{"," + nl4 + `"p95_ns": `, qs.P95NS},
		{"," + nl4 + `"p99_ns": `, qs.P99NS},
		{"," + nl4 + `"max_ns": `, qs.MaxNS},
	} {
		var err error
		if b, err = AppendJSONFloat(append(b, f.key...), f.v); err != nil {
			return b, err
		}
	}
	return append(b, nl3+"}"...), nil
}

// appendSLO appends an SLOSnapshot as the value of a scope's field.
func appendSLO(b []byte, ss SLOSnapshot) ([]byte, error) {
	b = strconv.AppendInt(append(b, "{"+nl4+`"m": `...), int64(ss.M), 10)
	b = strconv.AppendInt(append(b, ","+nl4+`"k": `...), int64(ss.K), 10)
	b = strconv.AppendInt(append(b, ","+nl4+`"window_misses": `...), int64(ss.WindowMisses), 10)
	b = strconv.AppendInt(append(b, ","+nl4+`"budget": `...), int64(ss.Budget), 10)
	b, err := AppendJSONFloat(append(b, ","+nl4+`"burn_rate": `...), ss.BurnRate)
	if err != nil {
		return b, err
	}
	b = AppendJSONString(append(b, ","+nl4+`"state": `...), ss.State)
	b = strconv.AppendUint(append(b, ","+nl4+`"executions": `...), ss.Executions, 10)
	b = strconv.AppendUint(append(b, ","+nl4+`"total_misses": `...), ss.TotalMisses, 10)
	b = strconv.AppendUint(append(b, ","+nl4+`"violations": `...), ss.Violations, 10)
	return append(b, nl3+"}"...), nil
}

var liveQuantiles = [...]struct {
	label string
	q     float64
}{{"p50", 0.5}, {"p95", 0.95}, {"p99", 0.99}, {"max", 1}}

// scopeGauges are one scope's chainmon_live_* gauges in one registry. Each
// row is bound by the publish that first creates it; later publishes only
// Set the bound gauges.
type scopeGauges struct {
	reg   *telemetry.Registry
	lat   *sketchGauges
	drain *sketchGauges // nil until the scope has a drain sketch
	slo   *sloGauges    // nil until the scope has an SLO
}

type sketchGauges struct {
	q              [len(liveQuantiles)]*telemetry.Gauge
	count, buckets *telemetry.Gauge
}

type sloGauges struct {
	misses, budget, state, burnPPM *telemetry.Gauge
}

type statusGauge struct {
	reg *telemetry.Registry
	g   *telemetry.Gauge
}

// PublishMetrics mirrors the set into registry gauges, so the live
// quantiles and SLO burn state ride the existing Prometheus surface
// (/metrics and the -metrics-out snapshot). Values are nanoseconds
// (chainmon_live_*_ns), counts, or enumerated burn states
// (0=ok 1=warning 2=burning 3=violated); burn rate is exported in ppm of
// the window's miss budget, -1 for a violated hard (m=0) constraint.
//
// Register it on a Sink with AddExportHook so every export — live scrape
// or end-of-run snapshot — republishes first and the two always agree.
// The set binds each row's gauge once per registry, so a publish that
// adds no row allocates nothing.
func (s *Set) PublishMetrics(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sc := range s.sorted {
		g := sc.gaugesFor(reg)
		g.lat.publish(sc.lat)
		if sc.drain != nil {
			if g.drain == nil {
				g.drain = bindSketch(reg, "chainmon_live_drain",
					"Live streaming-sketch event-ring drain latency for a monitored scope, in nanoseconds.", sc.labels())
			}
			g.drain.publish(sc.drain)
		}
		if sc.slo != nil {
			if g.slo == nil {
				g.slo = bindSLO(reg, sc.labels())
			}
			snap := sc.slo.Snapshot()
			g.slo.misses.Set(int64(snap.WindowMisses))
			g.slo.budget.Set(int64(snap.Budget))
			g.slo.state.Set(int64(sc.slo.State()))
			burnPPM := int64(-1)
			if snap.BurnRate >= 0 {
				burnPPM = int64(snap.BurnRate * 1e6)
			}
			g.slo.burnPPM.Set(burnPPM)
		}
	}
	s.statusFor(reg).Set(int64(s.worstLocked()))
}

// gaugesFor returns the scope's gauges in reg, binding its latency rows on
// first use; callers hold the set's lock.
func (sc *Scope) gaugesFor(reg *telemetry.Registry) *scopeGauges {
	for _, g := range sc.gauges {
		if g.reg == reg {
			return g
		}
	}
	g := &scopeGauges{reg: reg, lat: bindSketch(reg, "chainmon_live_latency",
		"Live streaming-sketch latency quantile for a monitored scope, in nanoseconds.", sc.labels())}
	sc.gauges = append(sc.gauges, g)
	return g
}

// statusFor returns the set's chainmon_live_status gauge in reg, binding
// it on first use; callers hold the set's lock.
func (s *Set) statusFor(reg *telemetry.Registry) *telemetry.Gauge {
	for _, st := range s.status {
		if st.reg == reg {
			return st.g
		}
	}
	g := reg.Gauge("chainmon_live_status",
		"Overall health: worst (m,k) burn state across all scopes (0=ok 1=warning 2=burning 3=violated).")
	s.status = append(s.status, statusGauge{reg, g})
	return g
}

func (sc *Scope) labels() []telemetry.Label {
	return telemetry.L("scope", sc.name, "kind", sc.kind)
}

func bindSketch(reg *telemetry.Registry, prefix, help string, labels []telemetry.Label) *sketchGauges {
	g := &sketchGauges{}
	for i, lq := range liveQuantiles {
		ql := append(append([]telemetry.Label(nil), labels...), telemetry.Label{Name: "q", Value: lq.label})
		g.q[i] = reg.Gauge(prefix+"_ns", help, ql...)
	}
	g.count = reg.Gauge(prefix+"_count", "Observations folded into the live sketch.", labels...)
	g.buckets = reg.Gauge(prefix+"_sketch_buckets", "Live buckets in the sketch (memory footprint).", labels...)
	return g
}

func (g *sketchGauges) publish(sk *Sketch) {
	for i, lq := range liveQuantiles {
		v := sk.Quantile(lq.q)
		if math.IsNaN(v) {
			v = 0
		}
		g.q[i].Set(int64(v))
	}
	g.count.Set(int64(sk.Count()))
	g.buckets.Set(int64(sk.Buckets()))
}

func bindSLO(reg *telemetry.Registry, labels []telemetry.Label) *sloGauges {
	return &sloGauges{
		misses: reg.Gauge("chainmon_live_slo_window_misses",
			"Deadline misses in the current (m,k) window.", labels...),
		budget: reg.Gauge("chainmon_live_slo_budget",
			"Misses the current (m,k) window still tolerates.", labels...),
		state: reg.Gauge("chainmon_live_slo_state",
			"Burn state of the (m,k) SLO: 0=ok 1=warning 2=burning 3=violated.", labels...),
		burnPPM: reg.Gauge("chainmon_live_slo_burn_ppm",
			"Fraction of the (m,k) miss budget consumed by the current window, in ppm (-1: hard constraint violated).", labels...),
	}
}
