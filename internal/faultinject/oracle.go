package faultinject

import (
	"fmt"
	"slices"
	"strings"

	"chainmon/internal/monitor"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
	"chainmon/internal/stats"
	"chainmon/internal/trace"
)

// Oracle computes ground-truth per-segment and end-to-end latencies
// directly from kernel-side event records — the global event times the
// monitors never see — and cross-checks every monitor verdict against them.
//
// The soundness contract it enforces (§IV-B of the paper):
//
//   - zero false negatives: every activation whose true end event falls
//     beyond the monitored deadline by more than the grace band, and every
//     activation that never produced an end event, must have raised a
//     temporal exception;
//   - ε-bounded false positives: an exception may only be raised when the
//     true end event is within slack of the deadline (or beyond it).
//
// Local segments receive explicit per-activation start events, so their
// deadline reference is the true start time and the bands only cover the
// clock noise between the two same-clock reads. Remote monitors arm their
// timer from the previous sample's transmitted source timestamp,
// t_st,n−1 + P + d_mon (Fig. 8), so the oracle replicates that deadline
// recurrence from the true kernel-side publication times: the reference
// resets on every reception the monitor accepted and advances by P over
// every exception. The band then only needs the sender+receiver clock
// error (2ε, widened by injected clock faults) plus the timeout routine's
// entry latency — the sender's activation jitter J^a is part of the
// contract, not of the band.
//
// The true times come from trace spans (trace.Span), whose delivery points
// sit at the head of the DDS hook chains, so the oracle observes raw
// receptions before any monitor discards a late sample.
type Oracle struct {
	segs []*SegmentTruth
	e2es []*E2ETruth
}

// Violation kinds reported by Check.
const (
	// KindFalseNegative: the true latency exceeded DMon + grace but the
	// monitor resolved the activation OK.
	KindFalseNegative = "false-negative"
	// KindLostNotDetected: the activation started and never produced an end
	// event, but no temporal exception was raised. The hard subset of the
	// false negatives — detecting these is what separates the
	// synchronization-based monitor from inter-arrival supervision.
	KindLostNotDetected = "lost-not-detected"
	// KindFalsePositive: an exception was raised although the true latency
	// was below DMon − slack.
	KindFalsePositive = "false-positive"
	// KindUnresolved: the monitor never resolved an activation inside its
	// supervised range.
	KindUnresolved = "unresolved"
	// KindE2EBound: all segments of a chain resolved OK but the true
	// end-to-end latency exceeded the chain bound plus the tolerance.
	KindE2EBound = "e2e-bound"
)

// Violation is one oracle finding.
type Violation struct {
	Segment    string
	Activation uint64
	Kind       string
	Detail     string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s act %d: %s (%s)", v.Segment, v.Activation, v.Kind, v.Detail)
}

// resolutionSource is anything that reports in-order activation
// resolutions; both monitor.LocalSegment and monitor.RemoteMonitor satisfy
// it.
type resolutionSource interface {
	OnResolve(monitor.ResolveFunc)
}

// SegmentTruth is the ground-truth record of one monitored segment.
type SegmentTruth struct {
	Name string
	// DMon is the segment's monitored deadline.
	DMon sim.Duration
	// Period is the segment's publication period (needed for the remote
	// deadline recurrence).
	Period sim.Duration
	// Slack is the allowed band below the true deadline in which an
	// exception is still legitimate (clock noise; for local segments the
	// same-clock measurement noise).
	Slack sim.Duration
	// Grace is the allowed band above the true deadline before a missing
	// exception counts as a false negative.
	Grace sim.Duration

	remote bool
	span   trace.Span
	res    map[uint64]monitor.Resolution

	// timeline records hot-swapped deadline actuations (budget epochs) in
	// staging order. Empty means the construction deadline DMon held for the
	// whole run.
	timeline []deadlineChange

	haveRes  bool
	firstRes uint64
	lastRes  uint64
}

// deadlineChange is one staged deadline actuation: from At on, the
// monitored deadline is (eventually) DMon.
type deadlineChange struct {
	At   sim.Time
	DMon sim.Duration
}

// DeadlineChange records a deadline actuation staged at the given time.
// Calls must come in non-decreasing staging order (the budget table's
// epochs are totally ordered, so any actuation source is).
//
// The monitor applies a staged deadline at the top of its next scan pass,
// and the swap barrier keeps in-flight activations on the deadline they
// were armed with — so around an epoch boundary the oracle cannot know
// which of the two deadlines judged a given activation. The checks become
// interval-based: a false negative needs the true latency beyond the
// LARGEST deadline possibly in force near the start, a false positive
// needs it below the SMALLEST. Away from boundaries the interval collapses
// to a point and the checks are exactly as tight as the static ones.
func (st *SegmentTruth) DeadlineChange(at sim.Time, dmon sim.Duration) {
	st.timeline = append(st.timeline, deadlineChange{At: at, DMon: dmon})
}

// DeadlineChange records an actuation on the named segment truth; unknown
// names are ignored (the controller may manage segments the oracle does
// not watch).
func (o *Oracle) DeadlineChange(segment string, at sim.Time, dmon sim.Duration) {
	for _, st := range o.segs {
		if st.Name == segment {
			st.DeadlineChange(at, dmon)
		}
	}
}

// dmonBounds returns the smallest and largest monitored deadline that can
// have judged an activation started at the given time. The staging-to-
// application delay is at most one scan pass, bounded by the segment
// period, so every deadline in force anywhere in [start, start+Period] is
// a candidate: the value staged last before the window plus anything
// staged inside it.
func (st *SegmentTruth) dmonBounds(start sim.Time) (lo, hi sim.Duration) {
	lo, hi = st.DMon, st.DMon
	inForce := st.DMon
	until := start.Add(st.Period)
	for _, ch := range st.timeline {
		if ch.At <= start {
			inForce = ch.DMon
			lo, hi = inForce, inForce
			continue
		}
		if ch.At > until {
			break
		}
		if ch.DMon < lo {
			lo = ch.DMon
		}
		if ch.DMon > hi {
			hi = ch.DMon
		}
	}
	return lo, hi
}

// Segment registers a segment truth record over the span, under the span's
// name. Remote marks segments whose verdicts come from a
// synchronization-based RemoteMonitor: their first resolved activation is
// excluded from checks (monitoring begins at the first reception, which is
// resolved OK unconditionally).
func (o *Oracle) Segment(span trace.Span, dmon, period, slack, grace sim.Duration, remote bool) *SegmentTruth {
	st := &SegmentTruth{
		Name: span.Name, DMon: dmon, Period: period, Slack: slack, Grace: grace, remote: remote,
		span: span,
		res:  make(map[uint64]monitor.Resolution),
	}
	o.segs = append(o.segs, st)
	return st
}

// Segments returns the registered truth records.
func (o *Oracle) Segments() []*SegmentTruth { return o.segs }

// Watch subscribes to the monitor's verdicts for this segment.
func (st *SegmentTruth) Watch(src resolutionSource) {
	src.OnResolve(func(r monitor.Resolution) {
		if !st.haveRes || r.Activation < st.firstRes {
			st.firstRes = r.Activation
		}
		if !st.haveRes || r.Activation > st.lastRes {
			st.lastRes = r.Activation
		}
		st.haveRes = true
		if _, ok := st.res[r.Activation]; !ok {
			st.res[r.Activation] = r
		}
	})
}

// activations returns the sorted union of the activations that started and
// the activations the monitor resolved.
func (st *SegmentTruth) activations() []uint64 {
	acts := st.span.Activations()
	for a := range st.res {
		acts = append(acts, a)
	}
	slices.Sort(acts)
	return slices.Compact(acts)
}

// inScope reports whether the activation is inside the monitor's supervised
// range: at or after the first resolution (strictly after, for remote
// segments) and at or before the last.
func (st *SegmentTruth) inScope(act uint64) bool {
	if !st.haveRes {
		return false
	}
	if st.remote && act <= st.firstRes {
		// Remote monitoring begins at the first reception, which is
		// resolved OK unconditionally (nothing earlier can be judged).
		return false
	}
	return act >= st.firstRes && act <= st.lastRes
}

// SegmentReport summarizes the cross-check of one segment.
type SegmentReport struct {
	Name      string
	Checked   int // activations cross-checked
	Skipped   int // out of supervised scope or tainted by recovery
	Lost      int // started, no end event
	TrueLate  int // arrived with true latency > DMon + Grace
	Exception int // monitor exceptions among checked activations
	FalseNeg  int
	FalsePos  int
}

func (r SegmentReport) String() string {
	return fmt.Sprintf("%-24s checked=%d lost=%d late=%d exceptions=%d falseNeg=%d falsePos=%d skipped=%d",
		r.Name, r.Checked, r.Lost, r.TrueLate, r.Exception, r.FalseNeg, r.FalsePos, r.Skipped)
}

func (st *SegmentTruth) check() (SegmentReport, []Violation) {
	if st.remote {
		return st.checkRemote()
	}
	return st.checkLocal()
}

// checkRemote replicates the remote monitor's deadline recurrence from the
// true publication times and cross-checks every verdict against it. The
// reference deadline for activation n is the previous accepted sample's
// publication time + P + DMon; every exception advances it by one period
// without a new timestamp (Fig. 8). Verdicts inside the ±Slack/Grace band
// around the reference are accepted either way; state then follows the
// monitor's actual decision so a borderline call cannot cascade.
func (st *SegmentTruth) checkRemote() (SegmentReport, []Violation) {
	rep := SegmentReport{Name: st.Name}
	var vs []Violation
	dlValid := false
	var deadline sim.Time
	advance := func(excepted bool, pub sim.Time, hasPub bool) {
		if !excepted && hasPub {
			deadline = pub.Add(st.Period + st.DMon)
			dlValid = true
			return
		}
		if dlValid {
			deadline = deadline.Add(st.Period)
		}
	}
	for _, act := range st.activations() {
		if !st.haveRes || act < st.firstRes || act > st.lastRes {
			rep.Skipped++
			continue
		}
		r, resolved := st.res[act]
		pub, hasPub := st.span.Start(act)
		end, hasEnd := st.span.End(act)
		if act == st.firstRes {
			// Monitoring begins at the first reception, which is resolved
			// OK unconditionally: nothing to judge, but its timestamp seeds
			// the deadline recurrence.
			rep.Skipped++
			advance(false, pub, hasPub)
			continue
		}
		if st.span.Tainted(act) {
			rep.Skipped++
			advance(resolved && r.Exception, pub, hasPub)
			continue
		}
		if !resolved {
			if hasPub || hasEnd {
				vs = append(vs, Violation{st.Name, act, KindUnresolved,
					"activation inside the supervised range never resolved"})
			}
			rep.Skipped++
			advance(!hasEnd, pub, hasPub)
			continue
		}
		rep.Checked++
		if r.Exception {
			rep.Exception++
		}
		if !hasEnd {
			rep.Lost++
			if !r.Exception {
				vs = append(vs, Violation{st.Name, act, KindLostNotDetected,
					fmt.Sprintf("no end event, resolved %v", r.Status)})
			}
		} else if dlValid {
			if end > deadline.Add(st.Grace) {
				rep.TrueLate++
				if !r.Exception {
					vs = append(vs, Violation{st.Name, act, KindFalseNegative,
						fmt.Sprintf("arrival %v past deadline %v + grace %v, resolved %v",
							sim.Duration(end), sim.Duration(deadline), st.Grace, r.Status)})
				}
			}
			if r.Exception && end <= deadline.Add(-st.Slack) {
				vs = append(vs, Violation{st.Name, act, KindFalsePositive,
					fmt.Sprintf("exception although arrival %v ≤ deadline %v − slack %v",
						sim.Duration(end), sim.Duration(deadline), st.Slack)})
			}
		}
		advance(r.Exception, pub, hasPub)
	}
	return rep, vs
}

func (st *SegmentTruth) checkLocal() (SegmentReport, []Violation) {
	rep := SegmentReport{Name: st.Name}
	var vs []Violation
	for _, act := range st.activations() {
		if !st.inScope(act) || st.span.Tainted(act) {
			rep.Skipped++
			continue
		}
		r, resolved := st.res[act]
		start, hasStart := st.span.Start(act)
		if !resolved {
			if hasStart {
				vs = append(vs, Violation{st.Name, act, KindUnresolved,
					"started but never resolved by the monitor"})
			}
			rep.Skipped++
			continue
		}
		rep.Checked++
		if r.Exception {
			rep.Exception++
		}
		if !hasStart {
			// Propagated-in miss: no truth to compare latencies against.
			continue
		}
		tl, arrived := st.span.Latency(act)
		if !arrived {
			rep.Lost++
			if !r.Exception {
				vs = append(vs, Violation{st.Name, act, KindLostNotDetected,
					fmt.Sprintf("no end event, resolved %v", r.Status)})
			}
			continue
		}
		// With hot-swapped deadlines the judging deadline is one of the
		// values in force near the start (see DeadlineChange); the FN check
		// uses the largest candidate, the FP check the smallest.
		dmonLo, dmonHi := st.dmonBounds(start)
		if tl > dmonHi+st.Grace {
			rep.TrueLate++
			if !r.Exception {
				vs = append(vs, Violation{st.Name, act, KindFalseNegative,
					fmt.Sprintf("true latency %v > deadline %v + grace %v, resolved %v",
						tl, dmonHi, st.Grace, r.Status)})
			}
		}
		if r.Exception && tl <= dmonLo-st.Slack {
			vs = append(vs, Violation{st.Name, act, KindFalsePositive,
				fmt.Sprintf("exception although true latency %v ≤ deadline %v − slack %v",
					tl, dmonLo, st.Slack)})
		}
	}
	return rep, vs
}

// E2ETruth is the ground-truth record of one end-to-end chain.
type E2ETruth struct {
	Name string
	// Bound is the chain's end-to-end budget B_e2e; Tolerance widens it for
	// the all-OK invariant check.
	Bound     sim.Duration
	Tolerance sim.Duration

	span    trace.Span
	segs    []*SegmentTruth
	latency *stats.Sample
}

// EndToEnd registers a chain truth record over the span, under the span's
// name, and the given segment truths: if every segment of an activation
// resolved OK, the true end-to-end latency must stay within Bound +
// Tolerance.
func (o *Oracle) EndToEnd(span trace.Span, bound, tolerance sim.Duration, segs ...*SegmentTruth) *E2ETruth {
	e := &E2ETruth{
		Name: span.Name, Bound: bound, Tolerance: tolerance,
		span: span, segs: segs, latency: stats.NewSample(),
	}
	o.e2es = append(o.e2es, e)
	return e
}

// Latencies returns the true end-to-end latency sample accumulated by
// Check.
func (e *E2ETruth) Latencies() *stats.Sample { return e.latency }

func (e *E2ETruth) check() []Violation {
	var vs []Violation
	for _, act := range e.span.Activations() {
		tl, ok := e.span.Latency(act)
		if !ok {
			continue
		}
		e.latency.AddDuration(tl)
		allOK := true
		for _, st := range e.segs {
			if !st.inScope(act) || st.span.Tainted(act) {
				allOK = false
				break
			}
			r, resolved := st.res[act]
			if !resolved || r.Status != monitor.StatusOK {
				allOK = false
				break
			}
		}
		if allOK && tl > e.Bound+e.Tolerance {
			vs = append(vs, Violation{e.Name, act, KindE2EBound,
				fmt.Sprintf("all segments OK but true e2e latency %v > bound %v + tolerance %v",
					tl, e.Bound, e.Tolerance)})
		}
	}
	return vs
}

// Report is the outcome of a Check pass.
type Report struct {
	Segments   []SegmentReport
	Violations []Violation
}

// Ok reports whether every oracle invariant held.
func (r Report) Ok() bool { return len(r.Violations) == 0 }

// Segment returns the report of the named segment.
func (r Report) Segment(name string) (SegmentReport, bool) {
	for _, s := range r.Segments {
		if s.Name == name {
			return s, true
		}
	}
	return SegmentReport{}, false
}

// Summary renders the per-segment cross-check table and all violations.
func (r Report) Summary() string {
	var b strings.Builder
	for _, s := range r.Segments {
		fmt.Fprintf(&b, "%s\n", s)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "VIOLATION %s\n", v)
	}
	return b.String()
}

// Check cross-checks every watched segment and chain. Call it after the
// kernel ran dry.
func (o *Oracle) Check() Report {
	var rep Report
	for _, st := range o.segs {
		sr, vs := st.check()
		rep.Segments = append(rep.Segments, sr)
		rep.Violations = append(rep.Violations, vs...)
	}
	for _, e := range o.e2es {
		rep.Violations = append(rep.Violations, e.check()...)
	}
	return rep
}

// InterArrivalAudit quantifies what an inter-arrival supervisor saw of the
// true deadline violations on a segment — the §IV-B comparison.
type InterArrivalAudit struct {
	// TrueViolations counts activations whose start fell inside the audit
	// window and whose true latency exceeded the segment deadline (or that
	// never arrived).
	TrueViolations int
	// Detections counts inter-arrival timer expiries inside the window.
	Detections int
}

// AuditInterArrival compares a segment's ground truth against an
// inter-arrival supervisor over the [from, until) window. The expected
// outcome on consecutive-miss patterns is Detections ≪ TrueViolations: the
// inter-arrival timer is re-armed by every arrival, so periodic-but-late
// streams and long outages collapse into few (or zero) detections.
func AuditInterArrival(st *SegmentTruth, m *monitor.InterArrivalMonitor, from, until sim.Time) InterArrivalAudit {
	var a InterArrivalAudit
	for _, act := range st.span.Activations() {
		if start, _ := st.span.Start(act); start < from || start >= until {
			continue
		}
		tl, arrived := st.span.Latency(act)
		if !arrived || tl > st.DMon {
			a.TrueViolations++
		}
	}
	for _, t := range m.Detections() {
		if t >= from && t < until {
			a.Detections++
		}
	}
	return a
}

// ForPerception wires an oracle over the full-chain perception system: one
// truth record per monitored segment (watched against its monitor) plus the
// front end-to-end chain. The tolerance bands are derived from the system
// configuration and the campaign's worst injected clock error, per §IV-B:
// remote pessimism is bounded by J^a + 2ε.
//
// The system must be built with FullChain monitoring and not yet run.
func ForPerception(sys *perception.System, camp Campaign) *Oracle {
	cfg := sys.Cfg
	if !cfg.Monitored || !cfg.FullChain {
		panic("faultinject: the oracle needs a monitored full-chain perception system")
	}
	o := &Oracle{}
	horizon := sim.Duration(cfg.Frames) * cfg.Period
	epsErr := cfg.ClockEpsilon + camp.MaxClockError(horizon)
	// Remote bands around the replicated deadline recurrence: the sender's
	// timestamp and the receiver's timer conversion each carry one clock
	// error, plus a margin for the timeout routine's dispatch and entry.
	remSlack := 2*epsErr + 2*sim.Millisecond
	remGrace := remSlack
	// Local segments measure start and end on the same clock, so static
	// offsets cancel — but the ε random walk moves between the two reads,
	// and an injected step can land between them.
	locSlack := 2*epsErr + 200*sim.Microsecond
	locGrace := 2*epsErr + 5*sim.Millisecond
	if cfg.RemoteVariant == monitor.VariantDDSContext {
		// The DDS-context variant runs timeout routines on the middleware
		// thread; under interference its exception entry latency grows to
		// milliseconds (Fig. 12), during which a late sample may still be
		// accepted. Soundness holds only up to that entry latency.
		remGrace += 100 * sim.Millisecond
	}

	// Each monitor's name is its span's, and its configuration holds the
	// deadline and period the truth judges against.
	watch := func(mon monitor.MonitoredSegment, slack, grace sim.Duration, remote bool) *SegmentTruth {
		c := mon.Config()
		st := o.Segment(sys.Span(c.Name), c.DMon, c.Period, slack, grace, remote)
		st.Watch(mon)
		return st
	}
	front := watch(sys.RemFront, remSlack, remGrace, true)
	watch(sys.RemRear, remSlack, remGrace, true)
	fusionFront := watch(sys.FusionFront, locSlack, locGrace, false)
	watch(sys.FusionRear, locSlack, locGrace, false)
	fused := watch(sys.RemFused, remSlack, remGrace, true)
	objects := watch(sys.SegObjects, locSlack, locGrace, false)
	watch(sys.SegGround, locSlack, locGrace, false)

	// The front chain of Fig. 2. The segment latencies compose
	// contiguously, so the tolerance is the sum of the per-segment bands.
	// A remote activation can resolve OK with an absolute latency of up to
	// DMon plus the sender's backward activation jitter (the contract's
	// bounded optimism), so the chain tolerance adds the worst upstream
	// publication jitter (device activation jitter, link jitter, execution
	// variation) on top of the per-segment bands.
	e2eTol := 2*remGrace + 2*locGrace + perception.DeviceJitterMax + 25*sim.Millisecond
	o.EndToEnd(sys.Span(perception.SegE2EFront), sys.ChainFront.Be2e, e2eTol, front, fusionFront, fused, objects)
	return o
}
