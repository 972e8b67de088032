package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, "sim", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(16)
	r.SetStream(sw)
	r.BindFlow("seg", "chain")
	scope := r.FlowScope("seg")
	a := r.Track("a")
	b := r.Track("b")
	lbl := r.Intern("seg")
	want := []struct {
		tr *Track
		ev Event
	}{
		{a, Event{TS: 10, Act: 1, Arg: 7, Flow: FlowID(scope, 1), Kind: KindDDSSend, Label: lbl}},
		{b, Event{TS: 20, Act: 1, Arg: -3, Flow: FlowID(scope, 1), Kind: KindVerdict, Label: lbl, Status: StatusOK}},
		{a, Event{TS: 30, Act: 2, Kind: KindScan}},
	}
	for _, w := range want {
		w.tr.Append(w.ev)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sw.EventsWritten(); got != 3 {
		t.Errorf("EventsWritten = %d, want 3", got)
	}
	if sw.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0 in direct mode", sw.Dropped())
	}

	l, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Timebase != "sim" {
		t.Errorf("timebase = %q", l.Timebase)
	}
	if l.Events() != 3 {
		t.Fatalf("log events = %d, want 3", l.Events())
	}
	tracks := l.Tracks()
	if len(tracks) != 2 || tracks[0].Name != "a" || tracks[1].Name != "b" {
		t.Fatalf("tracks = %+v", tracks)
	}
	if got := tracks[0].Events[0]; got != want[0].ev {
		t.Errorf("a[0] = %+v, want %+v", got, want[0].ev)
	}
	if got := tracks[1].Events[0]; got != want[1].ev {
		t.Errorf("b[0] = %+v, want %+v", got, want[1].ev)
	}
	if got := l.LabelName(lbl); got != "seg" {
		t.Errorf("label = %q", got)
	}
	if got := l.ScopeName(scope); got != "chain" {
		t.Errorf("scope = %q", got)
	}
}

func TestStreamSetStreamAfterTrackPanics(t *testing.T) {
	r := NewRecorder(8)
	r.Track("early")
	sw, err := NewStreamWriter(&bytes.Buffer{}, "sim", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetStream after Track did not panic")
		}
	}()
	r.SetStream(sw)
}

// Labels and scopes interned before SetStream must still be defined in the
// log (SetStream replays them), so a late-attached stream stays decodable.
func TestStreamReplaysEarlyDefinitions(t *testing.T) {
	r := NewRecorder(8)
	lbl := r.Intern("early-label")
	r.BindFlow("s", "early-scope")
	scope := r.FlowScope("s")
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, "sim", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetStream(sw)
	r.Track("t").Append(Event{TS: 1, Flow: FlowID(scope, 1), Kind: KindScan, Label: lbl})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LabelName(lbl); got != "early-label" {
		t.Errorf("label = %q", got)
	}
	if got := l.ScopeName(scope); got != "early-scope" {
		t.Errorf("scope = %q", got)
	}
}

// The background writer must survive concurrent producers under -race and
// lose nothing when the staging rings are large enough.
func TestStreamBackgroundConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, "wall", StreamOptions{
		RingCap:    4096,
		FlushEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(64)
	r.SetStream(sw)
	const producers, perTrack = 4, 1000
	tracks := make([]*Track, producers)
	for i := range tracks {
		tracks[i] = r.Track(string(rune('a' + i)))
	}
	var wg sync.WaitGroup
	for i, tr := range tracks {
		wg.Add(1)
		go func(i int, tr *Track) {
			defer wg.Done()
			for n := 0; n < perTrack; n++ {
				tr.Append(Event{TS: int64(n), Act: uint64(n), Kind: KindRingPostStart})
			}
		}(i, tr)
	}
	wg.Wait()
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Dropped() != 0 {
		t.Fatalf("dropped %d events with room in every ring", sw.Dropped())
	}
	l, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Events() != producers*perTrack {
		t.Fatalf("log events = %d, want %d", l.Events(), producers*perTrack)
	}
	for _, tr := range l.Tracks() {
		if len(tr.Events) != perTrack {
			t.Errorf("track %s: %d events, want %d", tr.Name, len(tr.Events), perTrack)
		}
		for n, ev := range tr.Events {
			if ev.TS != int64(n) {
				t.Fatalf("track %s: event %d has ts %d (ring reordered?)", tr.Name, n, ev.TS)
			}
		}
	}
}

// A saturated staging ring drops the newest events, counts them, and keeps
// everything it accepted.
func TestStreamBackgroundDropAccounting(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, "wall", StreamOptions{
		RingCap:    8,
		FlushEvery: time.Hour, // only the Close drain runs
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(8)
	r.SetStream(sw)
	tr := r.Track("t")
	for i := 0; i < 100; i++ {
		tr.Append(Event{TS: int64(i), Kind: KindScan})
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sw.Dropped(); got != 92 {
		t.Errorf("Dropped = %d, want 92", got)
	}
	if got := sw.EventsWritten(); got != 8 {
		t.Errorf("EventsWritten = %d, want 8", got)
	}
	var b strings.Builder
	if err := (&Sink{Rec: r, Reg: reg}).WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `chainmon_stream_dropped_total{track="t"} 92`) {
		t.Errorf("drop counter missing from metrics:\n%s", b.String())
	}
	l, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Events() != 8 {
		t.Errorf("log events = %d, want 8", l.Events())
	}
}

// A log truncated mid-record (crash, disk full) must still parse up to the
// last complete record.
func TestStreamTruncatedLogTolerated(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, "sim", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(8)
	r.SetStream(sw)
	tr := r.Track("t")
	tr.Append(Event{TS: 1, Kind: KindScan})
	tr.Append(Event{TS: 2, Kind: KindScan})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-10] // slices into the last event record
	l, err := ReadLog(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated log: %v", err)
	}
	if l.Events() != 1 {
		t.Errorf("events = %d, want 1 (the complete record)", l.Events())
	}
	if !l.Truncated {
		t.Error("a log cut inside a record must be flagged Truncated")
	}
}

// Flow stitching in the converted Perfetto JSON: multi-track flows get
// s/t/f events sharing the flow id, single-hop flows get none.
func TestLogPerfettoFlowEvents(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, "sim", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(16)
	r.SetStream(sw)
	r.BindFlow("seg", "chain")
	scope := r.FlowScope("seg")
	a, b, c := r.Track("a"), r.Track("b"), r.Track("c")
	flow := FlowID(scope, 7)
	lone := FlowID(scope, 8)
	a.Append(Event{TS: 100, Act: 7, Flow: flow, Kind: KindDDSSend})
	b.Append(Event{TS: 200, Act: 7, Flow: flow, Kind: KindNetSend})
	c.Append(Event{TS: 300, Act: 7, Flow: flow, Kind: KindDDSRecv})
	c.Append(Event{TS: 400, Act: 8, Flow: lone, Kind: KindVerdict, Status: StatusOK})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := l.WritePerfetto(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v\n%s", err, out.String())
	}
	phases := map[string]int{}
	var lastTS float64 = -1
	for _, ev := range doc.TraceEvents {
		if ev["cat"] != "flow" {
			continue
		}
		ph := ev["ph"].(string)
		phases[ph]++
		if id := ev["id"].(float64); uint32(id) != flow {
			t.Errorf("flow event has id %v, want %d (flow %d must emit no flow events)", id, flow, lone)
		}
		ts := ev["ts"].(float64)
		if ts < lastTS {
			t.Errorf("flow event timestamps not monotone: %v after %v", ts, lastTS)
		}
		lastTS = ts
		if ph == "f" && ev["bp"] != "e" {
			t.Errorf(`finish event missing "bp":"e": %v`, ev)
		}
	}
	if phases["s"] != 1 || phases["t"] != 1 || phases["f"] != 1 {
		t.Errorf("flow phases = %v, want one each of s/t/f", phases)
	}
}
