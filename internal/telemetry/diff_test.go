package telemetry

import (
	"strings"
	"testing"
	"time"
)

func sampleReport() *Report {
	return &Report{
		Timebase: "sim",
		Events:   100,
		Scopes: []*ScopeReport{
			{
				Scope: "front",
				Flows: 50,
				EndToEnd: HopStat{
					Name: "end-to-end", Count: 50,
					P50: 40 * time.Millisecond, P95: 55 * time.Millisecond,
					P99: 60 * time.Millisecond, Max: 70 * time.Millisecond,
				},
				Hops: []*HopStat{
					{Name: "dds-send→dds-recv", Count: 50,
						P50: 5 * time.Millisecond, P95: 8 * time.Millisecond,
						P99: 9 * time.Millisecond, Max: 11 * time.Millisecond},
				},
			},
		},
		Segments: []*SegmentReport{
			{
				Name: "camera-objects", OK: 95, Recovered: 3, Missed: 2,
				Latency: HopStat{
					Name: "latency", Count: 98,
					P50: 18 * time.Millisecond, P95: 22 * time.Millisecond,
					P99: 24 * time.Millisecond, Max: 28 * time.Millisecond,
				},
			},
		},
	}
}

// TestDiffIdenticalReports pins the self-diff acceptance criterion: a report
// diffed against itself has zero regressions and says so.
func TestDiffIdenticalReports(t *testing.T) {
	rep := sampleReport()
	d := DiffReports(rep, rep, DiffThresholds{})
	if reg := d.Regressions(); len(reg) != 0 {
		t.Fatalf("self-diff regressed: %v", reg)
	}
	if len(d.Deltas) == 0 {
		t.Fatal("self-diff compared nothing")
	}
	for _, st := range d.Deltas {
		if st.Old != st.New {
			t.Errorf("%s %s: old %v != new %v in self-diff", st.Where, st.Quantile, st.Old, st.New)
		}
	}
	var b strings.Builder
	d.Write(&b)
	if !strings.Contains(b.String(), "no regression") {
		t.Errorf("output missing verdict:\n%s", b.String())
	}
}

// TestDiffFlagsRegression perturbs the new report beyond the relative
// threshold on one quantile and the miss budget on the segment; exactly
// those cells must regress.
func TestDiffFlagsRegression(t *testing.T) {
	oldRep, newRep := sampleReport(), sampleReport()
	newRep.Scopes[0].EndToEnd.P95 = 70 * time.Millisecond // +27% > 10%
	newRep.Segments[0].OK = 80
	newRep.Segments[0].Missed = 17 // miss fraction 0.02 -> 0.17

	d := DiffReports(oldRep, newRep, DiffThresholds{})
	reg := d.Regressions()
	if len(reg) != 2 {
		t.Fatalf("regressions = %v, want exactly the perturbed p95 and the miss fraction", reg)
	}
	if !strings.Contains(reg[0], "front/end-to-end p95") {
		t.Errorf("first regression = %q", reg[0])
	}
	if !strings.Contains(reg[1], "camera-objects miss fraction") {
		t.Errorf("second regression = %q", reg[1])
	}
	var b strings.Builder
	d.Write(&b)
	if !strings.Contains(b.String(), "REGRESSION: 2") {
		t.Errorf("output missing verdict:\n%s", b.String())
	}
}

// TestDiffAbsoluteFloor: growth below the absolute floor never regresses,
// however large it is relatively — sub-millisecond hops need the floor to
// stay quiet under scheduler noise.
func TestDiffAbsoluteFloor(t *testing.T) {
	oldRep, newRep := sampleReport(), sampleReport()
	oldRep.Scopes[0].Hops[0].P50 = 100 * time.Microsecond
	newRep.Scopes[0].Hops[0].P50 = 900 * time.Microsecond // 9x, but +800µs < 1ms floor
	d := DiffReports(oldRep, newRep, DiffThresholds{})
	if reg := d.Regressions(); len(reg) != 0 {
		t.Errorf("sub-floor growth regressed: %v", reg)
	}

	// Tightening the floor flags it.
	d = DiffReports(oldRep, newRep, DiffThresholds{AbsNS: 100 * time.Microsecond})
	if reg := d.Regressions(); len(reg) != 1 {
		t.Errorf("regressions with 100µs floor = %v, want 1", reg)
	}
}

// TestDiffUnmatchedPopulations: scopes/segments present on one side only are
// reported but never regress.
func TestDiffUnmatchedPopulations(t *testing.T) {
	oldRep, newRep := sampleReport(), sampleReport()
	newRep.Segments = append(newRep.Segments, &SegmentReport{Name: "new-seg", Missed: 100})
	oldRep.Scopes = append(oldRep.Scopes, &ScopeReport{Scope: "gone"})
	d := DiffReports(oldRep, newRep, DiffThresholds{})
	if reg := d.Regressions(); len(reg) != 0 {
		t.Errorf("unmatched populations regressed: %v", reg)
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0] != "segment new-seg" {
		t.Errorf("OnlyNew = %v", d.OnlyNew)
	}
	if len(d.OnlyOld) != 1 || d.OnlyOld[0] != "scope gone" {
		t.Errorf("OnlyOld = %v", d.OnlyOld)
	}
}

// TestDiffThresholdDefaults: a partially set threshold struct keeps defaults
// for the rest.
func TestDiffThresholdDefaults(t *testing.T) {
	th := DiffThresholds{RelFrac: 0.5}.withDefaults()
	if th.RelFrac != 0.5 || th.AbsNS != time.Millisecond || th.MissFrac != 0.01 {
		t.Errorf("withDefaults = %+v", th)
	}
}
