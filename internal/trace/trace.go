// Package trace records the ground truth of a run (the paper's
// measurement-based approach uses LTTng for this): a Point is the first
// time, per activation, of one DDS event, and a Span pairs a start point
// with an end point into a segment's true latencies. The fault-injection
// oracle judges monitor verdicts against spans; the Recorder carries them
// to the budgeting step, where recorded traces L^{s_i} are extended by the
// exception-handling WCRT d_ex and fed into the constraint satisfaction
// problem of Section III-C. Traces can be exported and re-imported as JSON
// or CSV.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"chainmon/internal/sim"
	"chainmon/internal/stats"
)

// SegmentTrace is the recorded latency series of one segment, ordered by
// activation index. Missing activations (events that never paired) are
// excluded; Activations carries the original indices.
type SegmentTrace struct {
	Segment     string         `json:"segment"`
	Activations []uint64       `json:"activations"`
	Latencies   []sim.Duration `json:"latencies_ns"`
	Propagation int            `json:"propagation"` // p_l ∈ {0,1} for budgeting
}

// Sample returns the latencies as a statistics sample.
func (st *SegmentTrace) Sample() *stats.Sample {
	s := stats.NewSample()
	for _, l := range st.Latencies {
		s.AddDuration(l)
	}
	return s
}

// LatenciesInt64 returns the latencies in nanoseconds for the budget solver.
func (st *SegmentTrace) LatenciesInt64() []int64 {
	out := make([]int64, len(st.Latencies))
	for i, l := range st.Latencies {
		out[i] = int64(l)
	}
	return out
}

// Trace is a set of segment traces from one recording run.
type Trace struct {
	Segments []*SegmentTrace `json:"segments"`
}

// Segment returns the trace of the named segment, or nil.
func (t *Trace) Segment(name string) *SegmentTrace {
	for _, s := range t.Segments {
		if s.Segment == name {
			return s
		}
	}
	return nil
}

// WriteJSON serializes the trace.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadJSON deserializes a trace.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decoding JSON: %w", err)
	}
	return &t, nil
}

// WriteCSV writes one row per (segment, activation, latency).
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"segment", "activation", "latency_ns"}); err != nil {
		return err
	}
	for _, s := range t.Segments {
		for i, l := range s.Latencies {
			rec := []string{s.Segment, strconv.FormatUint(s.Activations[i], 10), strconv.FormatInt(int64(l), 10)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the WriteCSV format.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV: %w", err)
	}
	byName := make(map[string]*SegmentTrace)
	var order []string
	for i, row := range rows {
		if i == 0 && len(row) == 3 && row[0] == "segment" {
			continue // header
		}
		if len(row) != 3 {
			return nil, fmt.Errorf("trace: CSV row %d has %d fields, want 3", i, len(row))
		}
		act, err := strconv.ParseUint(row[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV row %d activation: %w", i, err)
		}
		lat, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV row %d latency: %w", i, err)
		}
		st, ok := byName[row[0]]
		if !ok {
			st = &SegmentTrace{Segment: row[0]}
			byName[row[0]] = st
			order = append(order, row[0])
		}
		st.Activations = append(st.Activations, act)
		st.Latencies = append(st.Latencies, sim.Duration(lat))
	}
	t := &Trace{}
	for _, name := range order {
		t.Segments = append(t.Segments, byName[name])
	}
	return t, nil
}

// Recorder turns named spans into the segment-latency traces of a run.
type Recorder struct {
	segs []recorded
}

// recorded is one segment the recorder traces.
type recorded struct {
	span        Span
	propagation int
	// remotePeriod, when non-zero, switches the segment to the effective
	// remote-monitoring latency: the paper's synchronization-based monitor
	// programs the deadline for activation n from the previous start
	// timestamp, t_st,n-1 + P + d_mon, so the quantity d_mon must bound is
	// end(n) − (start(n−1) + P) — which includes the activation jitter J^a
	// — rather than end(n) − start(n).
	remotePeriod sim.Duration
}

// NewRecorder creates a recorder with no segments.
func NewRecorder() *Recorder { return &Recorder{} }

// Segment records the span's latencies. propagation is the p_l factor used
// later by the budget solver (1 = misses propagate, 0 = perfect recovery).
func (r *Recorder) Segment(span Span, propagation int) {
	r.segs = append(r.segs, recorded{span: span, propagation: propagation})
}

// Remote records the span the way the synchronization-based remote monitor
// will measure it: latency(n) = end(n) − (start(n−1) + period), for an end
// no earlier than the previous start. Deadlines budgeted from such a trace
// are directly deployable as the monitor's d_mon (up to the clock
// synchronization error ε).
func (r *Recorder) Remote(span Span, propagation int, period sim.Duration) {
	r.segs = append(r.segs, recorded{span: span, propagation: propagation, remotePeriod: period})
}

// latency returns the segment's recorded latency of the activation.
func (s recorded) latency(act uint64) (sim.Duration, bool) {
	if s.remotePeriod == 0 {
		return s.span.Latency(act)
	}
	if act == 0 {
		return 0, false // no previous start to rebase from
	}
	prev, okS := s.span.Start(act - 1)
	end, okE := s.span.End(act)
	if !okS || !okE || end < prev {
		return 0, false
	}
	return end.Sub(prev.Add(s.remotePeriod)), true
}

// Trace assembles the recorded latencies, ordered by activation.
func (r *Recorder) Trace() *Trace {
	t := &Trace{}
	for _, s := range r.segs {
		st := &SegmentTrace{Segment: s.span.Name, Propagation: s.propagation}
		for _, a := range s.span.To.Activations() {
			if l, ok := s.latency(a); ok {
				st.Activations = append(st.Activations, a)
				st.Latencies = append(st.Latencies, l)
			}
		}
		t.Segments = append(t.Segments, st)
	}
	return t
}
