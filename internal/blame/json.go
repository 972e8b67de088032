package blame

import (
	"strconv"

	"chainmon/internal/livestats"
)

// AppendJSON appends the document to dst exactly as
// json.MarshalIndent(d, prefix, indent) renders it. The /health blame
// section (one indent deep) and `chainmon trace report -blame` (at the top
// level) both come from this renderer.
func (d Doc) AppendJSON(dst []byte, prefix, indent string) []byte {
	w := newJSONW(append(dst, '{'), prefix, indent)
	if d.Timebase != "" {
		w.str(1, "timebase", d.Timebase)
	}
	w.uint(1, "epoch", d.Epoch)
	w.uint(1, "flows", d.Flows)
	w.uint(1, "missed", d.Missed)
	if d.Skipped != 0 {
		w.uint(1, "skipped", d.Skipped)
	}
	if d.TruncatedHops != 0 {
		w.uint(1, "truncated_hops", d.TruncatedHops)
	}
	if d.Forced != 0 {
		w.uint(1, "forced_finalized", d.Forced)
	}
	w.field(1, "scopes")
	w.array(1, len(d.Scopes), d.Scopes == nil, func(i int) { d.Scopes[i].appendJSON(&w, 2) })
	w.end(0)
	return w.b
}

func (sd *ScopeDoc) appendJSON(w *jsonw, depth int) {
	in := depth + 1
	w.b = append(w.b, '{')
	w.str(in, "scope", sd.Scope)
	w.uint(in, "flows", sd.Flows)
	w.uint(in, "missed", sd.Missed)
	if sd.Skipped != 0 {
		w.uint(in, "skipped", sd.Skipped)
	}
	w.int(in, "e2e_total_ns", sd.E2ETotalNS)
	w.int(in, "total_blame_ns", sd.TotalBlameNS)
	w.field(in, "hops")
	w.array(in, len(sd.Hops), sd.Hops == nil, func(i int) { sd.Hops[i].appendJSON(w, in+1) })
	if len(sd.Segments) > 0 {
		w.field(in, "segments")
		w.array(in, len(sd.Segments), false, func(i int) { sd.Segments[i].appendJSON(w, in+1) })
	}
	if len(sd.Exemplars) > 0 {
		w.field(in, "exemplars")
		w.array(in, len(sd.Exemplars), false, func(i int) { sd.Exemplars[i].appendJSON(w, in+1) })
	}
	w.end(depth)
}

func (h *HopDoc) appendJSON(w *jsonw, depth int) {
	in := depth + 1
	w.b = append(w.b, '{')
	w.str(in, "name", h.Name)
	w.uint(in, "count", h.Count)
	w.int(in, "total_ns", h.TotalNS)
	w.int(in, "blame_ns", h.BlameNS)
	w.int(in, "share_ppm", h.SharePPM)
	w.int(in, "overrun_p50_ns", h.P50NS)
	w.int(in, "overrun_p95_ns", h.P95NS)
	w.int(in, "overrun_p99_ns", h.P99NS)
	w.int(in, "overrun_max_ns", h.MaxNS)
	w.end(depth)
}

func (s *SegmentDoc) appendJSON(w *jsonw, depth int) {
	in := depth + 1
	w.b = append(w.b, '{')
	w.str(in, "name", s.Name)
	w.uint(in, "armed", s.Armed)
	w.uint(in, "missed", s.Missed)
	w.int(in, "budget_ns", s.BudgetNS)
	w.uint(in, "epoch", s.Epoch)
	w.int(in, "overrun_ns", s.OverrunNS)
	w.int(in, "dwell_p50_ns", s.DwellP50NS)
	w.int(in, "dwell_p95_ns", s.DwellP95NS)
	w.int(in, "dwell_p99_ns", s.DwellP99NS)
	w.int(in, "dwell_max_ns", s.DwellMaxNS)
	w.end(depth)
}

func (x *ExemplarDoc) appendJSON(w *jsonw, depth int) {
	in := depth + 1
	w.b = append(w.b, '{')
	w.int(in, "rank", int64(x.Rank))
	w.uint(in, "act", x.Act)
	w.uint(in, "flow", uint64(x.Flow))
	w.int(in, "e2e_ns", x.E2ENS)
	w.str(in, "status", x.Status)
	w.uint(in, "epoch", x.Epoch)
	w.str(in, "primary", x.Primary)
	w.field(in, "timeline")
	w.array(in, len(x.Timeline), x.Timeline == nil, func(i int) { x.Timeline[i].appendJSON(w, in+1) })
	w.end(depth)
}

func (t *TimelineStep) appendJSON(w *jsonw, depth int) {
	in := depth + 1
	w.b = append(w.b, '{')
	w.int(in, "offset_ns", t.OffsetNS)
	w.str(in, "kind", t.Kind)
	if t.Label != "" {
		w.str(in, "label", t.Label)
	}
	if t.Track != "" {
		w.str(in, "track", t.Track)
	}
	if t.ArgNS != 0 {
		w.int(in, "arg", t.ArgNS)
	}
	if t.Status != 0 {
		w.uint(in, "status", uint64(t.Status))
	}
	w.end(depth)
}

// jsonw appends JSON laid out as json.MarshalIndent lays it out: every
// object member and array element on a line of its own, after the prefix
// and one indent per nesting level; empty arrays stay "[]".
type jsonw struct {
	b []byte
	// pad is a newline, the prefix and maxDepth indents; a line at depth d
	// starts with its first 1+len(prefix)+d*len(indent) bytes.
	pad           []byte
	base, perStep int
}

// maxDepth is the deepest nesting level of a Doc: a timeline step's fields.
const maxDepth = 7

func newJSONW(dst []byte, prefix, indent string) jsonw {
	pad := make([]byte, 0, 1+len(prefix)+maxDepth*len(indent))
	pad = append(append(pad, '\n'), prefix...)
	for i := 0; i < maxDepth; i++ {
		pad = append(pad, indent...)
	}
	return jsonw{b: dst, pad: pad, base: 1 + len(prefix), perStep: len(indent)}
}

// line starts a new line at the given nesting depth.
func (w *jsonw) line(depth int) {
	w.b = append(w.b, w.pad[:w.base+depth*w.perStep]...)
}

// field starts an object member at depth, after a comma unless it is the
// object's first member. Member names are plain ASCII and need no escaping.
func (w *jsonw) field(depth int, name string) {
	if w.b[len(w.b)-1] != '{' {
		w.b = append(w.b, ',')
	}
	w.line(depth)
	w.b = append(append(append(w.b, '"'), name...), `": `...)
}

// end closes the object whose opening line is at depth.
func (w *jsonw) end(depth int) {
	w.line(depth)
	w.b = append(w.b, '}')
}

func (w *jsonw) str(depth int, name, v string) {
	w.field(depth, name)
	w.b = livestats.AppendJSONString(w.b, v)
}

func (w *jsonw) int(depth int, name string, v int64) {
	w.field(depth, name)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *jsonw) uint(depth int, name string, v uint64) {
	w.field(depth, name)
	w.b = strconv.AppendUint(w.b, v, 10)
}

// array appends the value of a member at depth holding n elements, each
// rendered by elem on its own line one level deeper: null for a nil slice.
func (w *jsonw) array(depth, n int, isNil bool, elem func(i int)) {
	switch {
	case isNil:
		w.b = append(w.b, "null"...)
	case n == 0:
		w.b = append(w.b, "[]"...)
	default:
		w.b = append(w.b, '[')
		for i := 0; i < n; i++ {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.line(depth + 1)
			elem(i)
		}
		w.line(depth)
		w.b = append(w.b, ']')
	}
}
