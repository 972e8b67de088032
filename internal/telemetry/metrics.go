package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. segment="s3a/objects").
type Label struct {
	Name, Value string
}

// L builds a label list from alternating name/value pairs.
func L(kv ...string) []Label {
	if len(kv)%2 != 0 {
		panic("telemetry: L needs name/value pairs")
	}
	ls := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{kv[i], kv[i+1]})
	}
	return ls
}

// labelString renders labels in Prometheus syntax ({} sorted by name), used
// both as the registry key and in the exposition output. Values are quoted
// exactly as fmt's %q quotes them.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := labels
	if !slices.IsSortedFunc(ls, compareLabelNames) {
		var tmp [8]Label
		ls = append(tmp[:0], labels...)
		slices.SortStableFunc(ls, compareLabelNames)
	}
	var buf [128]byte
	b := append(buf[:0], '{')
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, l.Name...), '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return string(append(b, '}'))
}

func compareLabelNames(a, b Label) int { return strings.Compare(a.Name, b.Name) }

// Registry is a process-wide metrics table. Metric lookup/creation takes a
// mutex; updates on the returned handles are lock-free atomics, safe for
// concurrent writers (the wall-clock producer and monitor goroutines).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	// sorted lists the families by name for export. Adding a family
	// clears it, and the next export sorts a new list: a list once handed
	// out is never written again, so an export walks it without the lock.
	sorted []*family
}

type family struct {
	name, help, typ string
	rows            map[string]any // labelString → *Counter/*Gauge/*Histogram
	sorted          []metricRow    // by label string; rebuilt like Registry.sorted
}

// metricRow is one exported row of a family.
type metricRow struct {
	key string // labelString of the row's labels
	m   any    // *Counter, *Gauge or *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func (r *Registry) row(name, help, typ, key string, make func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, rows: map[string]any{}}
		r.fams[name] = f
		r.sorted = nil
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	m, ok := f.rows[key]
	if !ok {
		m = make()
		f.rows[key] = m
		f.sorted = nil
	}
	return m
}

// families returns the families sorted by name, sorting only after a
// family was added.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sorted == nil {
		r.sorted = make([]*family, 0, len(r.fams))
		for _, f := range r.fams {
			r.sorted = append(r.sorted, f)
		}
		slices.SortFunc(r.sorted, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	}
	return r.sorted
}

// rowsOf returns f's rows sorted by label string, sorting only after a row
// was added.
func (r *Registry) rowsOf(f *family) []metricRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.sorted == nil {
		f.sorted = make([]metricRow, 0, len(f.rows))
		for key, m := range f.rows {
			f.sorted = append(f.sorted, metricRow{key, m})
		}
		slices.SortFunc(f.sorted, func(a, b metricRow) int { return strings.Compare(a.key, b.key) })
	}
	return f.sorted
}

// Counter returns (creating on first use) a monotonically increasing
// counter. Repeated calls with the same name and labels return the same
// counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.row(name, help, "counter", labelString(labels),
		func() any { return &Counter{} }).(*Counter)
}

// Gauge returns (creating on first use) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.row(name, help, "gauge", labelString(labels),
		func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating on first use) a fixed-bucket histogram whose
// observations and bucket bounds are nanoseconds. All callers of one name
// must pass the same bounds.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	return r.row(name, help, "histogram", labelString(labels),
		func() any { return newHistogram(bounds) }).(*Histogram)
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that also tracks its maximum.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores the value and folds it into the running maximum.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// SetMax folds the value into the maximum without touching the current
// value.
func (g *Gauge) SetMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the last Set value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the largest value seen.
func (g *Gauge) Max() int64 { return g.max.Load() }

// DefLatencyBuckets is the default fixed bucket layout for latency
// histograms, in nanoseconds: 50µs … 1s, roughly logarithmic, spanning the
// posting overheads (µs) through the segment deadlines (100ms).
var DefLatencyBuckets = []int64{
	50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
	20_000_000, 50_000_000, 100_000_000, 150_000_000,
	250_000_000, 500_000_000, 1_000_000_000,
}

// Histogram is a fixed-bucket nanosecond histogram.
type Histogram struct {
	bounds []int64 // ascending upper bounds; the +Inf bucket is implicit
	counts []atomic.Uint64
	sum    atomic.Int64
	total  atomic.Uint64

	leOnce sync.Once
	les    []string // rendered le="bound" label per bucket, +Inf last
}

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one nanosecond observation.
func (h *Histogram) Observe(ns int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return ns <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(ns)
	h.total.Add(1)
}

// leLabels returns the le="bound" exposition label of every bucket, +Inf
// last, rendered on the first export and reused by every later one.
func (h *Histogram) leLabels() []string {
	h.leOnce.Do(func() {
		h.les = make([]string, 0, len(h.bounds)+1)
		for _, b := range h.bounds {
			h.les = append(h.les, "le="+strconv.Quote(formatSeconds(b)))
		}
		h.les = append(h.les, `le="+Inf"`)
	})
	return h.les
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observations in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }
