package blame

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"chainmon/internal/telemetry"
)

// Resolvers turn the raw ids the engine works on into names at snapshot
// time. Feed never resolves names (it may run under the stream writer's
// lock); Snapshot runs outside every telemetry lock and may.
type Resolvers struct {
	Label func(uint16) string
	Scope func(uint8) string
	Track func(uint16) string // optional; "" when nil
}

// RecorderResolvers builds snapshot resolvers over a live recorder.
func RecorderResolvers(r *telemetry.Recorder) Resolvers {
	return Resolvers{Label: r.LabelName, Scope: r.ScopeName, Track: r.TrackName}
}

// LogResolvers builds snapshot resolvers over a parsed log.
func LogResolvers(l *telemetry.Log) Resolvers {
	return Resolvers{Label: l.LabelName, Scope: l.ScopeName, Track: l.TrackName}
}

// Doc is the engine's externally visible state: the `blame` section of
// /health online, and the output of `chainmon trace report -blame` offline.
// Same-seed online and offline snapshots marshal to identical bytes.
type Doc struct {
	Timebase      string     `json:"timebase,omitempty"`
	Epoch         uint64     `json:"epoch"`
	Flows         uint64     `json:"flows"`
	Missed        uint64     `json:"missed"`
	Skipped       uint64     `json:"skipped,omitempty"`
	TruncatedHops uint64     `json:"truncated_hops,omitempty"`
	Forced        uint64     `json:"forced_finalized,omitempty"`
	Scopes        []ScopeDoc `json:"scopes"`
}

// ScopeDoc is one chain's attribution.
type ScopeDoc struct {
	Scope        string        `json:"scope"`
	Flows        uint64        `json:"flows"`
	Missed       uint64        `json:"missed"`
	Skipped      uint64        `json:"skipped,omitempty"`
	E2ETotalNS   int64         `json:"e2e_total_ns"`
	TotalBlameNS int64         `json:"total_blame_ns"`
	Hops         []HopDoc      `json:"hops"`
	Segments     []SegmentDoc  `json:"segments,omitempty"`
	Exemplars    []ExemplarDoc `json:"exemplars,omitempty"`
}

// HopDoc is one ledger-entry population: a budgeted segment ("seg:<name>")
// or a kind→kind transition.
type HopDoc struct {
	Name     string `json:"name"`
	Count    uint64 `json:"count"`
	TotalNS  int64  `json:"total_ns"`
	BlameNS  int64  `json:"blame_ns"`
	SharePPM int64  `json:"share_ppm"`
	P50NS    int64  `json:"overrun_p50_ns"`
	P95NS    int64  `json:"overrun_p95_ns"`
	P99NS    int64  `json:"overrun_p99_ns"`
	MaxNS    int64  `json:"overrun_max_ns"`
}

// SegmentDoc is one segment's slack table row.
type SegmentDoc struct {
	Name       string `json:"name"`
	Armed      uint64 `json:"armed"`
	Missed     uint64 `json:"missed"`
	BudgetNS   int64  `json:"budget_ns"`
	Epoch      uint64 `json:"epoch"`
	OverrunNS  int64  `json:"overrun_ns"`
	DwellP50NS int64  `json:"dwell_p50_ns"`
	DwellP95NS int64  `json:"dwell_p95_ns"`
	DwellP99NS int64  `json:"dwell_p99_ns"`
	DwellMaxNS int64  `json:"dwell_max_ns"`
}

// ExemplarDoc is one retained worst miss with its full hop timeline.
type ExemplarDoc struct {
	Rank     int            `json:"rank"`
	Act      uint64         `json:"act"`
	Flow     uint32         `json:"flow"`
	E2ENS    int64          `json:"e2e_ns"`
	Status   string         `json:"status"`
	Epoch    uint64         `json:"epoch"`
	Primary  string         `json:"primary"`
	Timeline []TimelineStep `json:"timeline"`
}

// TimelineStep is one hop of an exemplar's journey.
type TimelineStep struct {
	OffsetNS int64  `json:"offset_ns"`
	Kind     string `json:"kind"`
	Label    string `json:"label,omitempty"`
	Track    string `json:"track,omitempty"`
	ArgNS    int64  `json:"arg,omitempty"`
	Status   uint8  `json:"status,omitempty"`
}

// rawScope carries one scope's snapshot data out of the engine lock with
// ids still unresolved, so name resolution (which takes telemetry locks)
// never nests inside the engine mutex.
type rawScope struct {
	scope     uint8
	doc       ScopeDoc
	hopKeys   []hopKey
	hopDocs   []HopDoc
	segLabels []uint16
	exemplars []*exemplar
}

// Snapshot renders the engine's current state. Safe to call concurrently
// with Feed (the live /health scrape); call Flush first when the run is
// over so tail activations are attributed. Name resolution runs after the
// engine lock is released — Feed may be executing under the stream
// writer's lock, and the resolvers take telemetry locks that must never
// nest inside ours.
func (e *Engine) Snapshot(res Resolvers) Doc {
	e.mu.Lock()
	doc := Doc{
		Timebase:      e.timebase,
		Epoch:         e.epoch,
		TruncatedHops: e.truncatedHops,
		Forced:        e.forced,
		Scopes:        []ScopeDoc{},
	}
	raws := make([]rawScope, 0, len(e.scopeIDs))
	for _, id := range e.scopeIDs {
		sc := e.scopes[id]
		raw := rawScope{
			scope: id,
			doc: ScopeDoc{
				Flows:      sc.flows,
				Missed:     sc.missed,
				Skipped:    sc.skipped,
				E2ETotalNS: sc.e2eNS,
			},
		}
		doc.Flows += sc.flows
		doc.Missed += sc.missed
		doc.Skipped += sc.skipped

		for _, key := range sc.hopOrder {
			raw.doc.TotalBlameNS += sc.hops[key].blameNS
		}
		for _, key := range sc.hopOrder {
			agg := sc.hops[key]
			p50, p95, p99, max := sketchQuantiles(agg.overrun)
			hd := HopDoc{
				Count:   agg.count,
				TotalNS: agg.totalNS,
				BlameNS: agg.blameNS,
				P50NS:   p50, P95NS: p95, P99NS: p99, MaxNS: max,
			}
			if raw.doc.TotalBlameNS > 0 {
				hd.SharePPM = agg.blameNS * 1_000_000 / raw.doc.TotalBlameNS
			}
			raw.hopKeys = append(raw.hopKeys, key)
			raw.hopDocs = append(raw.hopDocs, hd)
		}
		for _, label := range sc.segOrder {
			sa := sc.segs[label]
			p50, p95, p99, max := sketchQuantiles(sa.dwell)
			raw.segLabels = append(raw.segLabels, label)
			raw.doc.Segments = append(raw.doc.Segments, SegmentDoc{
				Armed:      sa.armed,
				Missed:     sa.missed,
				BudgetNS:   sa.budgetNS,
				Epoch:      sa.epoch,
				OverrunNS:  sa.overrunNS,
				DwellP50NS: p50, DwellP95NS: p95,
				DwellP99NS: p99, DwellMaxNS: max,
			})
		}
		raw.exemplars = append([]*exemplar(nil), sc.exemplars...)
		raws = append(raws, raw)
	}
	e.mu.Unlock()

	trackName := res.Track
	if trackName == nil {
		trackName = func(uint16) string { return "" }
	}
	for _, raw := range raws {
		sd := raw.doc
		sd.Scope = res.Scope(raw.scope)
		for i, key := range raw.hopKeys {
			raw.hopDocs[i].Name = hopName(key, res.Label)
		}
		sd.Hops = raw.hopDocs
		slices.SortStableFunc(sd.Hops, func(a, b HopDoc) int { return strings.Compare(a.Name, b.Name) })
		for i, label := range raw.segLabels {
			sd.Segments[i].Name = res.Label(label)
		}
		slices.SortStableFunc(sd.Segments, func(a, b SegmentDoc) int { return strings.Compare(a.Name, b.Name) })
		for rank, x := range raw.exemplars {
			xd := ExemplarDoc{
				Rank:    rank + 1,
				Act:     x.act,
				Flow:    x.flow,
				E2ENS:   x.e2eNS,
				Status:  telemetry.StatusName(x.status),
				Epoch:   x.epoch,
				Primary: res.Label(x.primary),
			}
			for _, h := range x.timeline {
				xd.Timeline = append(xd.Timeline, TimelineStep{
					OffsetNS: h.ts - x.timeline[0].ts,
					Kind:     h.kind.String(),
					Label:    res.Label(h.label),
					Track:    trackName(h.track),
					ArgNS:    h.arg,
					Status:   h.status,
				})
			}
			sd.Exemplars = append(sd.Exemplars, xd)
		}
		doc.Scopes = append(doc.Scopes, sd)
	}
	slices.SortStableFunc(doc.Scopes, func(a, b ScopeDoc) int { return strings.Compare(a.Scope, b.Scope) })
	return doc
}

// hopName renders a ledger-entry key.
func hopName(key hopKey, label func(uint16) string) string {
	if key.seg {
		return "seg:" + label(key.label)
	}
	return key.from.String() + "→" + key.to.String()
}

// FromLog replays a parsed stream log through a fresh engine, in global
// file order — exactly the sequence the online stream observer saw — and
// flushes it. Snapshotting the result with LogResolvers(l) reproduces the
// online /health blame section byte for byte.
func FromLog(l *telemetry.Log, opt Options) *Engine {
	e := New(opt)
	e.SetTimebase(l.Timebase)
	l.Replay(e.Feed)
	e.Flush()
	return e
}

// PublishMetrics writes the engine's aggregates into the metrics registry
// as chainmon_blame_* gauges. Call from a Sink export hook so every scrape
// and snapshot sees current values.
//
// Each row's gauge is bound once per registry, by the publish that first
// sees the row; later publishes read the aggregates under the engine lock
// and Set the bound gauges, without building a Snapshot. Names are
// resolved only to bind a new row, after the engine lock is released, as
// in Snapshot.
func (e *Engine) PublishMetrics(reg *telemetry.Registry, res Resolvers) {
	e.mu.Lock()
	b := e.bindingLocked(reg)
	todo := e.publishLocked(b)
	e.mu.Unlock()
	if len(todo) == 0 {
		return
	}
	gauges := bindRows(reg, res, todo)
	e.mu.Lock()
	b.install(todo, gauges)
	e.publishLocked(b)
	e.mu.Unlock()
}

// binding is one registry's bound chainmon_blame_* gauges.
type binding struct {
	reg                  *telemetry.Registry
	epoch, flows, missed *telemetry.Gauge
	scopes               []scopeGauges // parallel to Engine.scopeIDs
}

type scopeGauges struct {
	blame *telemetry.Gauge
	hops  [][2]*telemetry.Gauge // share, overrun max; parallel to scopeAgg.hopOrder
	segs  [][2]*telemetry.Gauge // overrun, budget; parallel to scopeAgg.segOrder
}

// unbound is one row a binding lacks, by raw ids: a scope's own row
// (idx < 0), or the idx-th hop or segment row of the scope.
type unbound struct {
	scope int // index into Engine.scopeIDs
	idx   int
	seg   bool
	id    uint8
	key   hopKey
	label uint16
}

// bindingLocked returns reg's binding, creating it with its unlabelled
// gauges; callers hold e.mu.
func (e *Engine) bindingLocked(reg *telemetry.Registry) *binding {
	for _, b := range e.bindings {
		if b.reg == reg {
			return b
		}
	}
	b := &binding{
		reg: reg,
		epoch: reg.Gauge("chainmon_blame_epoch",
			"Largest budget-table epoch observed by the blame engine."),
		flows: reg.Gauge("chainmon_blame_flows_total",
			"Activations attributed by the blame engine."),
		missed: reg.Gauge("chainmon_blame_missed_total",
			"Attributed activations whose worst verdict was a miss."),
	}
	e.bindings = append(e.bindings, b)
	return b
}

// publishLocked sets every bound gauge of b from the aggregates and returns
// the rows b lacks, in scope, hop, segment order; callers hold e.mu.
func (e *Engine) publishLocked(b *binding) (todo []unbound) {
	var flows, missed uint64
	for i, id := range e.scopeIDs {
		sc := e.scopes[id]
		flows += sc.flows
		missed += sc.missed
		var total int64
		for _, key := range sc.hopOrder {
			total += sc.hops[key].blameNS
		}
		var g *scopeGauges
		if i < len(b.scopes) {
			g = &b.scopes[i]
			g.blame.Set(total)
		} else {
			todo = append(todo, unbound{scope: i, idx: -1, id: id})
		}
		for j, key := range sc.hopOrder {
			if g == nil || j >= len(g.hops) {
				todo = append(todo, unbound{scope: i, idx: j, id: id, key: key})
				continue
			}
			agg := sc.hops[key]
			var share int64
			if total > 0 {
				share = agg.blameNS * 1_000_000 / total
			}
			g.hops[j][0].Set(share)
			g.hops[j][1].Set(nanToZero(agg.overrun.Max()))
		}
		for j, label := range sc.segOrder {
			if g == nil || j >= len(g.segs) {
				todo = append(todo, unbound{scope: i, idx: j, seg: true, id: id, label: label})
				continue
			}
			sa := sc.segs[label]
			g.segs[j][0].Set(sa.overrunNS)
			g.segs[j][1].Set(sa.budgetNS)
		}
	}
	b.epoch.Set(int64(e.epoch))
	b.flows.Set(int64(flows))
	b.missed.Set(int64(missed))
	return todo
}

// bindRows resolves the names of the rows in todo and binds their gauges
// in reg. It runs outside the engine lock: the resolvers take telemetry
// locks.
func bindRows(reg *telemetry.Registry, res Resolvers, todo []unbound) [][2]*telemetry.Gauge {
	gauges := make([][2]*telemetry.Gauge, len(todo))
	for i, u := range todo {
		scope := res.Scope(u.id)
		switch {
		case u.idx < 0:
			gauges[i][0] = reg.Gauge("chainmon_blame_scope_blame_ns",
				"Total blamed overrun time of a scope, in nanoseconds.", telemetry.L("scope", scope)...)
		case u.seg:
			labels := telemetry.L("scope", scope, "segment", res.Label(u.label))
			gauges[i] = [2]*telemetry.Gauge{
				reg.Gauge("chainmon_blame_segment_overrun_ns",
					"Accumulated budget overrun of a segment, in nanoseconds.", labels...),
				reg.Gauge("chainmon_blame_segment_budget_ns",
					"Segment budget most recently seen in force at arm time, in nanoseconds.", labels...),
			}
		default:
			labels := telemetry.L("scope", scope, "hop", hopName(u.key, res.Label))
			gauges[i] = [2]*telemetry.Gauge{
				reg.Gauge("chainmon_blame_share_ppm",
					"Fraction of the scope's blamed overrun attributable to a hop, in ppm.", labels...),
				reg.Gauge("chainmon_blame_overrun_ns",
					"Blamed overrun of a hop on missed activations, in nanoseconds.",
					append(labels, telemetry.Label{Name: "q", Value: "max"})...),
			}
		}
	}
	return gauges
}

// install adds the gauges bound for todo to b. A row another publish bound
// in the meantime keeps its binding: both resolved to the same gauge.
// Callers hold the engine lock.
func (b *binding) install(todo []unbound, gauges [][2]*telemetry.Gauge) {
	for i, u := range todo {
		switch {
		case u.idx < 0:
			if u.scope == len(b.scopes) {
				b.scopes = append(b.scopes, scopeGauges{blame: gauges[i][0]})
			}
		case u.seg:
			if g := &b.scopes[u.scope]; u.idx == len(g.segs) {
				g.segs = append(g.segs, gauges[i])
			}
		default:
			if g := &b.scopes[u.scope]; u.idx == len(g.hops) {
				g.hops = append(g.hops, gauges[i])
			}
		}
	}
}

// Summary is the compact per-vehicle rollup the fleet layer aggregates:
// hop blame totals without sketches or exemplars.
type Summary struct {
	Flows   uint64     `json:"flows"`
	Missed  uint64     `json:"missed"`
	BlameNS int64      `json:"blame_ns"`
	Hops    []HopShare `json:"hops,omitempty"`
}

// HopShare is one hop's share of a Summary's blame.
type HopShare struct {
	Name     string `json:"name"`
	BlameNS  int64  `json:"blame_ns"`
	SharePPM int64  `json:"share_ppm"`
}

// Summarize folds the engine's scopes into one compact Summary (hop names
// merged across scopes, sorted).
func (e *Engine) Summarize(res Resolvers) Summary {
	doc := e.Snapshot(res)
	sum := Summary{Flows: doc.Flows, Missed: doc.Missed}
	byName := map[string]int64{}
	for _, sc := range doc.Scopes {
		for _, h := range sc.Hops {
			byName[h.Name] += h.BlameNS
			sum.BlameNS += h.BlameNS
		}
	}
	sum.Hops = sharesOf(byName, sum.BlameNS)
	return sum
}

// MergeSummaries folds per-vehicle summaries into a fleet-level one; the
// result is independent of input order except for the (stable, sorted) hop
// naming, so serial and parallel fleet merges agree byte for byte.
func MergeSummaries(sums []*Summary) Summary {
	out := Summary{}
	byName := map[string]int64{}
	for _, s := range sums {
		if s == nil {
			continue
		}
		out.Flows += s.Flows
		out.Missed += s.Missed
		out.BlameNS += s.BlameNS
		for _, h := range s.Hops {
			byName[h.Name] += h.BlameNS
		}
	}
	out.Hops = sharesOf(byName, out.BlameNS)
	return out
}

func sharesOf(byName map[string]int64, total int64) []HopShare {
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	var hops []HopShare
	for _, name := range names {
		hs := HopShare{Name: name, BlameNS: byName[name]}
		if total > 0 {
			hs.SharePPM = hs.BlameNS * 1_000_000 / total
		}
		hops = append(hops, hs)
	}
	return hops
}

// String renders a one-line digest for logs and fleet summaries.
func (s Summary) String() string {
	worst := "none"
	if len(s.Hops) > 0 {
		top := s.Hops[0]
		for _, h := range s.Hops[1:] {
			if h.BlameNS > top.BlameNS || (h.BlameNS == top.BlameNS && h.Name < top.Name) {
				top = h
			}
		}
		worst = fmt.Sprintf("%s (%d ppm)", top.Name, top.SharePPM)
	}
	return fmt.Sprintf("flows=%d missed=%d blame=%dns worst=%s", s.Flows, s.Missed, s.BlameNS, worst)
}
