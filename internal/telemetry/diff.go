package telemetry

import (
	"fmt"
	"io"
	"time"
)

// DiffThresholds configures when a latency delta between two trace reports
// counts as a regression. A quantile regresses when
//
//	new > old + max(AbsNS, RelFrac·old)
//
// — the absolute floor keeps microsecond-scale noise on fast hops from
// tripping the relative test, and the relative term scales with slow hops.
// A segment's miss fraction regresses when it grows by more than MissFrac.
type DiffThresholds struct {
	// RelFrac is the allowed relative growth per quantile (default 0.10).
	RelFrac float64
	// AbsNS is the absolute growth floor per quantile (default 1ms).
	AbsNS time.Duration
	// MissFrac is the allowed miss-fraction growth per segment
	// (default 0.01).
	MissFrac float64
}

// DefaultDiffThresholds returns the default regression thresholds.
func DefaultDiffThresholds() DiffThresholds {
	return DiffThresholds{RelFrac: 0.10, AbsNS: time.Millisecond, MissFrac: 0.01}
}

// withDefaults fills zero fields so a partially configured threshold set
// (one flag overridden on the command line) keeps the documented defaults.
func (th DiffThresholds) withDefaults() DiffThresholds {
	d := DefaultDiffThresholds()
	if th.RelFrac > 0 {
		d.RelFrac = th.RelFrac
	}
	if th.AbsNS > 0 {
		d.AbsNS = th.AbsNS
	}
	if th.MissFrac > 0 {
		d.MissFrac = th.MissFrac
	}
	return d
}

// StatDelta is one compared quantile: a (scope or segment, metric, quantile)
// cell of the old and new reports.
type StatDelta struct {
	// Where names the compared population, e.g. "scope front/end-to-end" or
	// "segment camera-objects/latency".
	Where string
	// Quantile is "p50", "p95", "p99" or "max".
	Quantile  string
	Old, New  time.Duration
	Regressed bool
}

// MissDelta is one segment's verdict-miss-fraction comparison.
type MissDelta struct {
	Segment   string
	Old, New  float64
	Regressed bool
}

// ReportDiff is the comparison of two trace reports built from CHMTRC01
// logs of the same scenario — the offline regression gate.
type ReportDiff struct {
	Thresholds DiffThresholds
	Deltas     []StatDelta
	Misses     []MissDelta
	// OnlyOld and OnlyNew name populations present in just one report
	// (renamed segments, added hops); they never count as regressions but
	// are listed so a silently vanished chain is visible.
	OnlyOld, OnlyNew []string
}

// DiffReports compares two reports cell by cell. Zero-valued thresholds
// select the defaults.
func DiffReports(oldRep, newRep *Report, th DiffThresholds) *ReportDiff {
	d := &ReportDiff{Thresholds: th.withDefaults()}

	oldScopes := map[string]*ScopeReport{}
	for _, sc := range oldRep.Scopes {
		oldScopes[sc.Scope] = sc
	}
	newScopes := map[string]*ScopeReport{}
	for _, sc := range newRep.Scopes {
		newScopes[sc.Scope] = sc
	}
	for _, sc := range oldRep.Scopes {
		if _, ok := newScopes[sc.Scope]; !ok {
			d.OnlyOld = append(d.OnlyOld, "scope "+sc.Scope)
		}
	}
	for _, sc := range newRep.Scopes {
		oldSc, ok := oldScopes[sc.Scope]
		if !ok {
			d.OnlyNew = append(d.OnlyNew, "scope "+sc.Scope)
			continue
		}
		d.compareStat("scope "+sc.Scope+"/end-to-end", oldSc.EndToEnd, sc.EndToEnd)
		oldHops := map[string]*HopStat{}
		for _, h := range oldSc.Hops {
			oldHops[h.Name] = h
		}
		newHops := map[string]bool{}
		for _, h := range sc.Hops {
			newHops[h.Name] = true
			oldHop, ok := oldHops[h.Name]
			if !ok {
				d.OnlyNew = append(d.OnlyNew, "scope "+sc.Scope+"/hop "+h.Name)
				continue
			}
			d.compareStat("scope "+sc.Scope+"/hop "+h.Name, *oldHop, *h)
		}
		for _, h := range oldSc.Hops {
			if !newHops[h.Name] {
				d.OnlyOld = append(d.OnlyOld, "scope "+sc.Scope+"/hop "+h.Name)
			}
		}
	}

	oldSegs := map[string]*SegmentReport{}
	for _, s := range oldRep.Segments {
		oldSegs[s.Name] = s
	}
	newSegs := map[string]bool{}
	for _, s := range newRep.Segments {
		newSegs[s.Name] = true
		oldSeg, ok := oldSegs[s.Name]
		if !ok {
			d.OnlyNew = append(d.OnlyNew, "segment "+s.Name)
			continue
		}
		d.compareStat("segment "+s.Name+"/latency", oldSeg.Latency, s.Latency)
		oldFrac := missFraction(oldSeg)
		newFrac := missFraction(s)
		d.Misses = append(d.Misses, MissDelta{
			Segment:   s.Name,
			Old:       oldFrac,
			New:       newFrac,
			Regressed: newFrac > oldFrac+d.Thresholds.MissFrac,
		})
	}
	for _, s := range oldRep.Segments {
		if !newSegs[s.Name] {
			d.OnlyOld = append(d.OnlyOld, "segment "+s.Name)
		}
	}
	return d
}

// compareStat emits the four quantile deltas of one population. Populations
// with no samples on either side produce no rows.
func (d *ReportDiff) compareStat(where string, oldSt, newSt HopStat) {
	if oldSt.Count == 0 && newSt.Count == 0 {
		return
	}
	for _, q := range []struct {
		name     string
		old, new time.Duration
	}{
		{"p50", oldSt.P50, newSt.P50},
		{"p95", oldSt.P95, newSt.P95},
		{"p99", oldSt.P99, newSt.P99},
		{"max", oldSt.Max, newSt.Max},
	} {
		allow := time.Duration(d.Thresholds.RelFrac * float64(q.old))
		if allow < d.Thresholds.AbsNS {
			allow = d.Thresholds.AbsNS
		}
		d.Deltas = append(d.Deltas, StatDelta{
			Where:     where,
			Quantile:  q.name,
			Old:       q.old,
			New:       q.new,
			Regressed: q.new > q.old+allow,
		})
	}
}

func missFraction(s *SegmentReport) float64 {
	total := s.OK + s.Recovered + s.Missed
	if total == 0 {
		return 0
	}
	return float64(s.Missed) / float64(total)
}

// Regressions returns one line per regressed cell, empty when the new
// report is within thresholds everywhere.
func (d *ReportDiff) Regressions() []string {
	var out []string
	for _, st := range d.Deltas {
		if st.Regressed {
			out = append(out, fmt.Sprintf("%s %s: %v -> %v", st.Where, st.Quantile, st.Old, st.New))
		}
	}
	for _, m := range d.Misses {
		if m.Regressed {
			out = append(out, fmt.Sprintf("segment %s miss fraction: %.4f -> %.4f", m.Segment, m.Old, m.New))
		}
	}
	return out
}

// Write renders the full delta table; regressed rows are marked with "!".
func (d *ReportDiff) Write(w io.Writer) {
	fmt.Fprintf(w, "trace diff (rel %.0f%%, abs %v, miss +%.2f)\n",
		d.Thresholds.RelFrac*100, d.Thresholds.AbsNS, d.Thresholds.MissFrac)
	last := ""
	for _, st := range d.Deltas {
		if st.Where != last {
			fmt.Fprintf(w, "%s\n", st.Where)
			last = st.Where
		}
		mark := " "
		if st.Regressed {
			mark = "!"
		}
		fmt.Fprintf(w, "  %s %-4s %-12v -> %-12v (%+v)\n", mark, st.Quantile, st.Old, st.New, st.New-st.Old)
	}
	if len(d.Misses) > 0 {
		fmt.Fprintf(w, "miss fractions\n")
		for _, m := range d.Misses {
			mark := " "
			if m.Regressed {
				mark = "!"
			}
			fmt.Fprintf(w, "  %s %-24s %.4f -> %.4f\n", mark, m.Segment, m.Old, m.New)
		}
	}
	for _, s := range d.OnlyOld {
		fmt.Fprintf(w, "only in old: %s\n", s)
	}
	for _, s := range d.OnlyNew {
		fmt.Fprintf(w, "only in new: %s\n", s)
	}
	if reg := d.Regressions(); len(reg) > 0 {
		fmt.Fprintf(w, "REGRESSION: %d cell(s) beyond thresholds\n", len(reg))
	} else {
		fmt.Fprintf(w, "no regression\n")
	}
}
