package telemetry

import (
	"bufio"
	"io"
	"net/http"
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
	var num [20]byte // histogram value scratch
	r := s.Reg
	for _, f := range r.families() {
		writeLine(bw, "# HELP ", f.name, " ", f.help)
		writeLine(bw, "# TYPE ", f.name, " ", f.typ)
		for _, row := range r.rowsOf(f) {
			switch v := row.m.(type) {
			case *Counter:
				bw.Write(append(strconv.AppendUint(sample(bw, f.name, row.key), v.Value(), 10), '\n'))
			case *Gauge:
				bw.Write(append(strconv.AppendInt(sample(bw, f.name, row.key), v.Value(), 10), '\n'))
			case *Histogram:
				// Bucket rows add le="bound" to the row's own labels.
				open, sep := "{", ""
				if row.key != "" {
					open, sep = row.key[:len(row.key)-1], ","
				}
				var cum uint64
				for i, le := range v.leLabels() {
					cum += v.counts[i].Load()
					writeLine(bw, f.name, "_bucket", open, sep, le, "} ",
						string(strconv.AppendUint(num[:0], cum, 10)))
				}
				writeLine(bw, f.name, "_sum", row.key, " ", formatSeconds(v.Sum()))
				writeLine(bw, f.name, "_count", row.key, " ", string(strconv.AppendUint(num[:0], v.Count(), 10)))
			}
		}
	}
	return bw.Flush()
}

// sample returns the writer's free buffer holding a sample row's name,
// labels and the space before its value, for the value to be appended to.
func sample(bw *bufio.Writer, name, key string) []byte {
	return append(append(append(bw.AvailableBuffer(), name...), key...), ' ')
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
// safe while producers are still appending. Each track's gauge is bound by
// the first export that sees the track.
func (s *Sink) syncRecorderMetrics() {
	if s.Rec == nil {
		return
	}
	tracks := s.Rec.trackList()
	s.dropMu.Lock()
	defer s.dropMu.Unlock()
	for len(s.drops) < len(tracks) {
		s.drops = append(s.drops, s.Reg.Gauge("chainmon_flight_recorder_dropped_events",
			"Events overwritten (dropped-oldest) in a flight-recorder track ring.",
			Label{Name: "track", Value: tracks[len(s.drops)].Name()}))
	}
	for i, g := range s.drops {
		g.Set(int64(tracks[i].Dropped()))
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
