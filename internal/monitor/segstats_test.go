package monitor

import (
	"fmt"
	"testing"

	"chainmon/internal/sim"
)

// TestSegmentStatsCountsOnly feeds one resolution of every kind to a
// collector that keeps every resolution and to a counts-only one, the kind
// a wall-clock segment gets. Both count and summarize the same activations;
// only the first keeps the resolutions and the latency samples.
func TestSegmentStatsCountsOnly(t *testing.T) {
	ms := sim.Time(sim.Millisecond)
	rs := []Resolution{
		{Activation: 0, Status: StatusOK, Start: ms, End: 4 * ms, Latency: 3 * sim.Millisecond},
		{Activation: 1, Status: StatusRecovered, Start: 11 * ms, End: 17 * ms, Latency: 6 * sim.Millisecond,
			Exception: true, DetectionLatency: 100 * sim.Microsecond},
		{Activation: 2, Status: StatusMissed, Start: 21 * ms, End: 27 * ms, Latency: 6 * sim.Millisecond,
			Exception: true, DetectionLatency: 200 * sim.Microsecond},
		// Propagated in: never started here, so it has no latency.
		{Activation: 3, Status: StatusMissed, End: 37 * ms, Exception: true},
	}
	full, counts := NewSegmentStats("s"), newSegmentStats("s", false)
	for _, r := range rs {
		full.record(r)
		counts.record(r)
	}

	for _, st := range []*SegmentStats{full, counts} {
		if ok, rec, missed := st.Counts(); ok != 1 || rec != 1 || missed != 2 {
			t.Errorf("counts ok=%d recovered=%d missed=%d, want 1/1/2", ok, rec, missed)
		}
		if n := st.Exceptions(); n != 3 {
			t.Errorf("exceptions = %d, want 3", n)
		}
		if got, want := st.Summary(), fmt.Sprintf("%-24s activations=4 ok=1 recovered=1 missed=2", "s"); got != want {
			t.Errorf("summary %q, want %q", got, want)
		}
	}

	if n := len(full.Resolutions()); n != len(rs) {
		t.Errorf("full collector kept %d resolutions, want %d", n, len(rs))
	}
	if n := full.Latencies().Len(); n != 3 {
		t.Errorf("full collector kept %d latencies, want 3 (the propagated-in miss has none)", n)
	}
	if n := full.DetectionLatencies().Len(); n != 3 {
		t.Errorf("full collector kept %d detection latencies, want one per exception (3)", n)
	}

	if n := len(counts.Resolutions()); n != 0 {
		t.Errorf("counts-only collector kept %d resolutions, want none", n)
	}
	if n := counts.Latencies().Len() + counts.ExceptionLatencies().Len() + counts.DetectionLatencies().Len(); n != 0 {
		t.Errorf("counts-only collector kept %d latency samples, want none", n)
	}
}
