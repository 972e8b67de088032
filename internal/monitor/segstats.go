package monitor

import (
	"fmt"

	"chainmon/internal/stats"
)

// SegmentStats accumulates per-segment measurements: the monitored segment
// latencies (Fig. 9), the latencies of the temporal exception cases
// (Fig. 10), detection/entry latencies (Figs. 10 and 12), and the resolution
// counts by status.
//
// A wall-clock segment runs for as long as its host does, so its stats keep
// only the counts: Resolutions and the three samples stay empty, and a
// caller that wants every activation observes it through OnResolve.
type SegmentStats struct {
	Name string

	history     bool // false: counts only (wall clock)
	resolutions []Resolution
	latency     *stats.Sample // all activations (monitored latency definition)
	excLatency  *stats.Sample // exception cases only
	detection   *stats.Sample // deadline → handler entry
	counts      [3]int        // by Status
}

// NewSegmentStats creates an empty collector that keeps every resolution.
func NewSegmentStats(name string) *SegmentStats {
	return newSegmentStats(name, true)
}

func newSegmentStats(name string, history bool) *SegmentStats {
	return &SegmentStats{
		Name:       name,
		history:    history,
		latency:    stats.NewSample(),
		excLatency: stats.NewSample(),
		detection:  stats.NewSample(),
	}
}

func (s *SegmentStats) record(r Resolution) {
	s.counts[r.Status]++
	if !s.history {
		return
	}
	s.resolutions = append(s.resolutions, r)
	if lat, ok := r.LatencySample(); ok {
		s.latency.AddDuration(lat)
	}
	if r.Exception {
		if r.Start != 0 {
			s.excLatency.AddDuration(r.Latency)
		}
		s.detection.AddDuration(r.DetectionLatency)
	}
}

// Resolutions returns all recorded resolutions in activation order.
func (s *SegmentStats) Resolutions() []Resolution { return s.resolutions }

// Latencies returns the monitored latency sample over all activations that
// started (end event or exception end, whichever came first).
func (s *SegmentStats) Latencies() *stats.Sample { return s.latency }

// ExceptionLatencies returns the latency sample of exception cases only.
func (s *SegmentStats) ExceptionLatencies() *stats.Sample { return s.excLatency }

// DetectionLatencies returns the deadline-to-handler-entry sample.
func (s *SegmentStats) DetectionLatencies() *stats.Sample { return s.detection }

// Counts returns how many activations resolved ok, recovered and missed.
func (s *SegmentStats) Counts() (ok, recovered, missed int) {
	return s.counts[StatusOK], s.counts[StatusRecovered], s.counts[StatusMissed]
}

// Exceptions returns the number of temporal exceptions raised.
func (s *SegmentStats) Exceptions() int {
	return s.counts[StatusRecovered] + s.counts[StatusMissed]
}

// Summary renders a one-line overview.
func (s *SegmentStats) Summary() string {
	ok, rec, miss := s.Counts()
	return fmt.Sprintf("%-24s activations=%d ok=%d recovered=%d missed=%d", s.Name, ok+rec+miss, ok, rec, miss)
}

// OverheadStats collects the local-monitoring overhead measurements of
// Fig. 11 in the simulated system: event posting costs, the monitor latency
// (post → processed by the monitor thread) and the monitor execution time.
// A wall-clock monitor fills none of them: it keeps no per-activation
// sample, and its drain latencies reach only its segments' OnDrain
// observers (RunFig11 times posts and scans itself).
type OverheadStats struct {
	StartPost  *stats.Sample // start-event overhead
	EndPost    *stats.Sample // end-event overhead
	MonLatency *stats.Sample // monitor latency: post → drained
	MonExec    *stats.Sample // monitor thread execution time per scan
}

// NewOverheadStats creates empty overhead collectors.
func NewOverheadStats() *OverheadStats {
	return &OverheadStats{
		StartPost:  stats.NewSample(),
		EndPost:    stats.NewSample(),
		MonLatency: stats.NewSample(),
		MonExec:    stats.NewSample(),
	}
}

// Rows renders the four overhead boxplot rows of Fig. 11.
func (o *OverheadStats) Rows() []string {
	return []string{
		o.StartPost.Tukey().DurationRow("start-event overhead"),
		o.EndPost.Tukey().DurationRow("end-event overhead"),
		o.MonLatency.Tukey().DurationRow("monitor latency"),
		o.MonExec.Tukey().DurationRow("monitor execution time"),
	}
}
