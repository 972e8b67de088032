package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestTrackAppendWrapAndDrop(t *testing.T) {
	r := NewRecorder(8)
	tr := r.Track("a")
	for i := 0; i < 20; i++ {
		tr.Append(Event{TS: int64(i), Kind: KindScan})
	}
	if got := tr.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("Events len = %d, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := int64(12 + i); ev.TS != want {
			t.Fatalf("event %d: TS = %d, want %d (oldest-first after wrap)", i, ev.TS, want)
		}
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Recorder.Dropped = %d, want 12", got)
	}
}

func TestTrackPartialFill(t *testing.T) {
	r := NewRecorder(8)
	tr := r.Track("a")
	for i := 0; i < 3; i++ {
		tr.Append(Event{TS: int64(i)})
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[0].TS != 0 || evs[2].TS != 2 {
		t.Fatalf("Events = %+v, want TS 0..2", evs)
	}
}

func TestNilRecorderAndTrack(t *testing.T) {
	var r *Recorder
	tr := r.Track("x")
	tr.Append(Event{}) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil track should be empty")
	}
	if r.Intern("x") != 0 {
		t.Fatal("nil recorder Intern should return 0")
	}
	if r.Tracks() != nil {
		t.Fatal("nil recorder Tracks should return nil")
	}
	if r.TrackName(0) != "" {
		t.Fatal("nil recorder TrackName should return \"\"")
	}
}

func TestRecorderTrackName(t *testing.T) {
	r := NewRecorder(8)
	for _, name := range []string{"a", "b", "c"} {
		r.Track(name)
	}
	for _, tr := range r.Tracks() {
		if got := r.TrackName(tr.ID()); got != tr.Name() {
			t.Errorf("TrackName(%d) = %q, want %q", tr.ID(), got, tr.Name())
		}
	}
	if got := r.TrackName(3); got != "" {
		t.Errorf("TrackName of an undefined id = %q, want \"\"", got)
	}
}

func TestTrackCapRoundsUp(t *testing.T) {
	r := NewRecorder(100)
	tr := r.Track("a")
	for i := 0; i < 128; i++ {
		tr.Append(Event{})
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("cap should round 100 up to 128; dropped %d", got)
	}
	tr.Append(Event{})
	if got := tr.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
}

func TestIntern(t *testing.T) {
	r := NewRecorder(8)
	a := r.Intern("s1a/fusion-front")
	b := r.Intern("s1a/fusion-front")
	c := r.Intern("other")
	if a != b {
		t.Fatalf("Intern not stable: %d vs %d", a, b)
	}
	if a == c {
		t.Fatal("distinct strings interned to same id")
	}
	if got := r.LabelName(a); got != "s1a/fusion-front" {
		t.Fatalf("LabelName = %q", got)
	}
	if got := r.LabelName(0); got != "" {
		t.Fatalf("LabelName(0) = %q, want empty", got)
	}
}

func TestRegistryDedupAndTypes(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x_total", "help", Label{"seg", "a"})
	c2 := reg.Counter("x_total", "ignored", Label{"seg", "a"})
	if c1 != c2 {
		t.Fatal("same name+labels must return the same counter")
	}
	c3 := reg.Counter("x_total", "help", Label{"seg", "b"})
	if c1 == c3 {
		t.Fatal("different labels must return distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two types should panic")
		}
	}()
	reg.Gauge("x_total", "help")
}

func TestGaugeMax(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth", "")
	g.Set(5)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 5 {
		t.Fatalf("Value=%d Max=%d, want 3/5", g.Value(), g.Max())
	}
	g.SetMax(10)
	if g.Value() != 3 || g.Max() != 10 {
		t.Fatalf("after SetMax: Value=%d Max=%d, want 3/10", g.Value(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5126 {
		t.Fatalf("Count=%d Sum=%d", h.Count(), h.Sum())
	}
	want := []uint64{2, 2, 0, 1} // ≤10, ≤100, ≤1000, +Inf
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	s := NewSink(8)
	s.Reg.Counter("chainmon_test_total", "test counter", Label{"seg", "s1"}).Add(3)
	s.Reg.Counter("chainmon_test_total", "test counter", Label{"seg", "s0"}).Inc()
	s.Reg.Gauge("chainmon_depth", "depth gauge").Set(-2)
	h := s.Reg.Histogram("chainmon_lat_seconds", "latency", []int64{1_000_000, 100_000_000})
	h.Observe(500_000)
	h.Observe(50_000_000)
	h.Observe(2_000_000_000)

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# HELP chainmon_depth depth gauge
# TYPE chainmon_depth gauge
chainmon_depth -2
# HELP chainmon_lat_seconds latency
# TYPE chainmon_lat_seconds histogram
chainmon_lat_seconds_bucket{le="0.001"} 1
chainmon_lat_seconds_bucket{le="0.1"} 2
chainmon_lat_seconds_bucket{le="+Inf"} 3
chainmon_lat_seconds_sum 2.0505
chainmon_lat_seconds_count 3
# HELP chainmon_test_total test counter
# TYPE chainmon_test_total counter
chainmon_test_total{seg="s0"} 1
chainmon_test_total{seg="s1"} 3
`
	if got != want {
		t.Fatalf("WriteMetrics mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteMetricsFollowsAddedRows: an export after rows, families and
// recorder tracks were added lists them in sorted position, and each
// track's drop gauge follows the track's current count.
func TestWriteMetricsFollowsAddedRows(t *testing.T) {
	s := NewSink(4)
	b := s.Rec.Track("b-track")
	s.Reg.Gauge("chainmon_g", "g", Label{"k", "b"}).Set(1)
	export := func() string {
		var buf bytes.Buffer
		if err := s.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	export()
	for i := 0; i < 6; i++ {
		b.Append(Event{TS: int64(i)})
	}
	s.Rec.Track("a-track")
	s.Reg.Gauge("chainmon_g", "g", Label{"k", "a"}).Set(2)
	s.Reg.Gauge("chainmon_a", "a").Set(3)
	want := `# HELP chainmon_a a
# TYPE chainmon_a gauge
chainmon_a 3
# HELP chainmon_flight_recorder_dropped_events Events overwritten (dropped-oldest) in a flight-recorder track ring.
# TYPE chainmon_flight_recorder_dropped_events gauge
chainmon_flight_recorder_dropped_events{track="a-track"} 0
chainmon_flight_recorder_dropped_events{track="b-track"} 2
# HELP chainmon_g g
# TYPE chainmon_g gauge
chainmon_g{k="a"} 2
chainmon_g{k="b"} 1
`
	if got := export(); got != want {
		t.Fatalf("export after added rows:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabelRenderingMatchesFmtQuoting pins label rendering to the
// fmt-based form it replaced (name=%q pairs sorted by name), on sorted and
// unsorted label lists with values that need escaping.
func TestLabelRenderingMatchesFmtQuoting(t *testing.T) {
	reference := func(labels []Label) string {
		if len(labels) == 0 {
			return ""
		}
		ls := append([]Label(nil), labels...)
		sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
		var parts []string
		for _, l := range ls {
			parts = append(parts, fmt.Sprintf("%s=%q", l.Name, l.Value))
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	values := []string{"", "s1a/fusion", `q"u`, `a\b`, "n\nl", "ctrl\x01", "µs/段", "bad\xff", strings.Repeat("long/", 40)}
	for i, v := range values {
		w := values[(i+1)%len(values)]
		for _, labels := range [][]Label{
			nil,
			{{"scope", v}},
			{{"kind", w}, {"scope", v}},
			{{"scope", v}, {"kind", w}, {"q", "p99"}},
		} {
			if got, want := labelString(labels), reference(labels); got != want {
				t.Errorf("labelString(%q) = %s, want %s", labels, got, want)
			}
		}
	}
}

func TestWritePerfettoValidJSON(t *testing.T) {
	s := NewSink(64)
	tr := s.Rec.Track("ecu1/monitor")
	seg := s.Rec.Intern(`s1a/"fusion"`)
	tr.Append(Event{TS: 1_000_000, Act: 1, Arg: 2, Kind: KindRingPostStart, Label: seg})
	tr.Append(Event{TS: 2_000_000, Act: 1, Arg: 500_000, Kind: KindExcHandler, Status: OutcomeRecovered, Label: seg})
	tr.Append(Event{TS: 2_500_000, Act: 1, Arg: 1_400_000, Kind: KindVerdict, Status: StatusRecovered, Label: seg})
	tr.Append(Event{TS: 3_000_000, Arg: 7, Kind: KindTimeoutQueue})
	s.Rec.Track("kernel").Append(Event{TS: 1, Arg: 42, Act: 9, Kind: KindKernelQueue})

	var buf bytes.Buffer
	if err := s.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 process metadata + 2 tracks × 2 metadata + 6 events (ring post emits
	// instant + counter).
	if len(doc.TraceEvents) != 11 {
		t.Fatalf("traceEvents = %d entries, want 11", len(doc.TraceEvents))
	}
	var sawSpan, sawCounter bool
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			sawSpan = true
			if ev["ts"].(float64) != 1500 || ev["dur"].(float64) != 500 {
				t.Fatalf("span ts/dur wrong: %v", ev)
			}
		case "C":
			sawCounter = true
		case "M", "i":
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if !sawSpan || !sawCounter {
		t.Fatalf("missing span (%v) or counter (%v) events", sawSpan, sawCounter)
	}
}

func TestWriteEventsCSV(t *testing.T) {
	s := NewSink(8)
	tr := s.Rec.Track("net")
	tr.Append(Event{TS: 5, Arg: 100, Kind: KindNetDrop, Label: s.Rec.Intern("ecu1->ecu2")})
	var buf bytes.Buffer
	if err := s.WriteEventsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header+1", len(lines))
	}
	if lines[1] != "net,5,net-drop,0,100,0,ecu1->ecu2," {
		t.Fatalf("row = %q", lines[1])
	}
	if !strings.HasSuffix(lines[0], ",flow") {
		t.Fatalf("header = %q, want trailing flow column", lines[0])
	}
}

func TestMicrosFormatting(t *testing.T) {
	cases := map[int64]string{
		0:         "0.000",
		1:         "0.001",
		999:       "0.999",
		1000:      "1.000",
		1_234_567: "1234.567",
		-1_500:    "-1.500",
		-1:        "-0.001",
	}
	for ns, want := range cases {
		if got := micros(ns); got != want {
			t.Errorf("micros(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[int64]string{
		0:             "0.0",
		50_000:        "0.00005",
		1_000_000_000: "1.0",
		2_050_500_000: "2.0505",
		-500_000_000:  "-0.5",
	}
	for ns, want := range cases {
		if got := formatSeconds(ns); got != want {
			t.Errorf("formatSeconds(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestJSONString(t *testing.T) {
	cases := map[string]string{
		"plain":    `"plain"`,
		`q"u`:      `"q\"u"`,
		"a\\b":     `"a\\b"`,
		"n\nl":     `"n\nl"`,
		"ctrl\x01": "\"ctrl\\u0001\"",
		"µs/段":     `"µs/段"`,
	}
	for in, want := range cases {
		got := jsonString(in)
		if got != want {
			t.Errorf("jsonString(%q) = %s, want %s", in, got, want)
			continue
		}
		var back string
		if err := json.Unmarshal([]byte(got), &back); err != nil || back != in {
			t.Errorf("jsonString(%q) does not round-trip: %v", in, err)
		}
	}
}

// TestConcurrentMetricUpdates exercises the lock-free metric handles from
// many goroutines, with concurrent scrapes rendering them (the first
// renders a histogram's bucket labels); run under -race in CI.
func TestConcurrentMetricUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", []int64{10, 100})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.SetMax(int64(i*1000 + j))
				h.Observe(int64(j % 200))
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var buf bytes.Buffer
				if err := (&Sink{Reg: reg}).WriteMetrics(&buf); err != nil {
					t.Error(err)
				}
				if !strings.Contains(buf.String(), `h_bucket{le="+Inf"} `) {
					t.Errorf("scrape lacks the +Inf bucket:\n%s", buf.String())
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter=%d hist=%d, want 8000", c.Value(), h.Count())
	}
	if g.Max() != 7999 {
		t.Fatalf("gauge max = %d, want 7999", g.Max())
	}
}

func BenchmarkTrackAppend(b *testing.B) {
	r := NewRecorder(1 << 12)
	tr := r.Track("bench")
	ev := Event{TS: 1, Act: 2, Arg: 3, Kind: KindRingPostStart, Label: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.TS = int64(i)
		tr.Append(ev)
	}
}

func BenchmarkNilTrackAppend(b *testing.B) {
	var tr *Track
	ev := Event{Kind: KindRingPostStart}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Append(ev)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench", "", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i%200) * 1_000_000)
	}
}
