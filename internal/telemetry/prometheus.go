package telemetry

import (
	"bufio"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// WriteMetrics writes the registry in the Prometheus text exposition format
// (version 0.0.4). Families are sorted by name and rows by label string, so
// the dump is byte-identical for identical runs. Histogram buckets and sums
// are rendered in seconds, as Prometheus convention expects.
func (s *Sink) WriteMetrics(w io.Writer) error {
	s.runExportHooks()
	s.syncRecorderMetrics()
	bw := bufio.NewWriter(w)
	var num [20]byte // sample value scratch
	r := s.Reg
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	r.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		r.mu.Lock()
		f := r.fams[name]
		keys := append([]string(nil), f.order...)
		r.mu.Unlock()
		sort.Strings(keys)

		writeLine(bw, "# HELP ", f.name, " ", f.help)
		writeLine(bw, "# TYPE ", f.name, " ", f.typ)
		for _, key := range keys {
			r.mu.Lock()
			m := f.rows[key]
			r.mu.Unlock()
			switch v := m.(type) {
			case *Counter:
				writeLine(bw, f.name, key, " ", string(strconv.AppendUint(num[:0], v.Value(), 10)))
			case *Gauge:
				writeLine(bw, f.name, key, " ", string(strconv.AppendInt(num[:0], v.Value(), 10)))
			case *Histogram:
				// Bucket rows add le="bound" to the row's own labels.
				open, sep := "{", ""
				if key != "" {
					open, sep = key[:len(key)-1], ","
				}
				var cum uint64
				for i, le := range v.leLabels() {
					cum += v.counts[i].Load()
					writeLine(bw, f.name, "_bucket", open, sep, le, "} ",
						string(strconv.AppendUint(num[:0], cum, 10)))
				}
				writeLine(bw, f.name, "_sum", key, " ", formatSeconds(v.Sum()))
				writeLine(bw, f.name, "_count", key, " ", string(strconv.AppendUint(num[:0], v.Count(), 10)))
			}
		}
	}
	return bw.Flush()
}

// writeLine writes the concatenated parts and a newline. The parts are
// copied into the writer's free buffer, so none of them escapes.
func writeLine(bw *bufio.Writer, parts ...string) {
	b := bw.AvailableBuffer()
	for _, p := range parts {
		b = append(b, p...)
	}
	bw.Write(append(b, '\n'))
}

// syncRecorderMetrics mirrors the flight recorder's per-track drop-oldest
// counters into the registry before every export, so silent event loss
// during long runs is visible on /metrics alongside the streaming sink's
// chainmon_stream_* counters. Reading a track's counter is an atomic load,
// safe while producers are still appending.
func (s *Sink) syncRecorderMetrics() {
	if s.Rec == nil {
		return
	}
	for _, t := range s.Rec.Tracks() {
		s.Reg.Gauge("chainmon_flight_recorder_dropped_events",
			"Events overwritten (dropped-oldest) in a flight-recorder track ring.",
			Label{Name: "track", Value: t.Name()}).Set(int64(t.Dropped()))
	}
}

// Handler returns an http.Handler serving the registry in the text
// exposition format, for the -metrics-addr flag.
func (s *Sink) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
}
