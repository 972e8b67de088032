package telemetry

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStreamFilePlain checks that a file-owning writer without rotation
// produces exactly the single-file format ReadLog already understands, and
// that OpenLogSet reads it through the same path.
func TestStreamFilePlain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.log")
	sw, err := NewStreamFile(path, "sim", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(16)
	r.SetStream(sw)
	tr := r.Track("t")
	tr.Append(Event{TS: 1, Kind: KindScan})
	tr.Append(Event{TS: 2, Kind: KindScan})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sw.Rotations(); got != 0 {
		t.Errorf("Rotations = %d, want 0", got)
	}
	l, err := OpenLogSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Events() != 2 || l.Timebase != "sim" {
		t.Errorf("events = %d timebase = %q", l.Events(), l.Timebase)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(bytes.NewReader(raw)); err != nil {
		t.Errorf("plain file not ReadLog-compatible: %v", err)
	}
}

// TestStreamFileRotateRoundTrip is the rotation round-trip: a tiny
// threshold forces many gzip segments, definitions made both before and
// after rotations must resolve everywhere, and OpenLogSet must reassemble
// the full in-order event stream. Each segment must also parse on its own,
// because the writer replays all definitions at every segment start.
func TestStreamFileRotateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.log")
	reg := NewRegistry()
	sw, err := NewStreamFile(path, "sim", StreamOptions{RotateBytes: 512, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(16)
	r.SetStream(sw)
	r.BindFlow("seg", "chain")
	scope := r.FlowScope("seg")
	early := r.Intern("early")
	a, b := r.Track("a"), r.Track("b")
	const perTrack = 60
	var late uint16
	for i := 0; i < perTrack; i++ {
		if i == perTrack/2 {
			late = r.Intern("late-label") // defined after at least one rotation
		}
		a.Append(Event{TS: int64(i), Act: uint64(i), Flow: FlowID(scope, uint64(i)), Kind: KindDDSSend, Label: early})
		b.Append(Event{TS: int64(i), Act: uint64(i), Kind: KindVerdict, Label: late, Status: StatusOK})
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rot := sw.Rotations()
	if rot == 0 {
		t.Fatal("no rotation despite 512-byte threshold")
	}
	if _, err := os.Stat(path); err == nil {
		t.Errorf("rotating writer also created the base path %s", path)
	}
	for i := 0; i <= int(rot); i++ {
		if _, err := os.Stat(segmentName(path, i)); err != nil {
			t.Errorf("segment %d missing: %v", i, err)
		}
	}

	l, err := OpenLogSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Timebase != "sim" {
		t.Errorf("timebase = %q", l.Timebase)
	}
	if l.Events() != 2*perTrack {
		t.Fatalf("events = %d, want %d", l.Events(), 2*perTrack)
	}
	tracks := l.Tracks()
	if len(tracks) != 2 || tracks[0].Name != "a" || tracks[1].Name != "b" {
		t.Fatalf("tracks = %+v (def replay must not duplicate tracks)", tracks)
	}
	for _, tr := range tracks {
		if len(tr.Events) != perTrack {
			t.Fatalf("track %s: %d events, want %d", tr.Name, len(tr.Events), perTrack)
		}
		for i, ev := range tr.Events {
			if ev.TS != int64(i) {
				t.Fatalf("track %s: event %d has ts %d (order lost across rotation)", tr.Name, i, ev.TS)
			}
		}
	}
	if got := l.LabelName(early); got != "early" {
		t.Errorf("early label = %q", got)
	}
	if got := l.LabelName(late); got != "late-label" {
		t.Errorf("late label = %q", got)
	}
	if got := l.ScopeName(scope); got != "chain" {
		t.Errorf("scope = %q", got)
	}

	// A rotated segment alone must be self-describing: the defs replayed at
	// its start resolve every event it carries, even though the tracks were
	// created back in segment 0.
	f, err := os.Open(segmentName(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ReadLog(gz)
	if err != nil {
		t.Fatalf("rotated segment not independently readable: %v", err)
	}
	if len(seg.Tracks()) != 2 {
		t.Errorf("rotated segment defines %d tracks, want 2", len(seg.Tracks()))
	}
	if seg.Events() == 0 || seg.Events() >= 2*perTrack {
		t.Errorf("rotated segment has %d events, want a nonzero strict subset", seg.Events())
	}

	var out strings.Builder
	if err := (&Sink{Rec: r, Reg: reg}).WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chainmon_stream_rotations_total") {
		t.Errorf("rotation counter missing from metrics:\n%s", out.String())
	}
}

// TestStreamFileGzipSniff checks that OpenLogSet transparently decompresses
// a single gzip-compressed log that is not part of a rotated set.
func TestStreamFileGzipSniff(t *testing.T) {
	var plain bytes.Buffer
	sw, err := NewStreamWriter(&plain, "wall", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(8)
	r.SetStream(sw)
	r.Track("t").Append(Event{TS: 5, Kind: KindScan})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.log.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLogSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Events() != 1 || l.Timebase != "wall" {
		t.Errorf("events = %d timebase = %q", l.Events(), l.Timebase)
	}
}

// TestStreamFileTruncatedFinalSegment simulates a run killed mid-flush: the
// last segment is cut at an arbitrary byte. OpenLogSet must still return
// everything up to the cut, and an empty final segment (killed right after
// rotating) must not fail the whole set.
func TestStreamFileTruncatedFinalSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.log")
	sw, err := NewStreamFile(path, "sim", StreamOptions{RotateBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(16)
	r.SetStream(sw)
	tr := r.Track("t")
	const total = 100
	for i := 0; i < total; i++ {
		tr.Append(Event{TS: int64(i), Kind: KindScan})
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rot := int(sw.Rotations())
	if rot < 2 {
		t.Fatalf("need several segments, got %d rotations", rot)
	}

	last := segmentName(path, rot)
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLogSet(path)
	if err != nil {
		t.Fatalf("truncated final segment: %v", err)
	}
	if l.Events() == 0 || l.Events() >= total {
		t.Errorf("events = %d, want a nonzero strict subset of %d", l.Events(), total)
	}
	if !l.Truncated {
		t.Error("a final segment cut inside a record must flag the log Truncated")
	}

	// Now cut the final segment to nothing at all.
	if err := os.WriteFile(last, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLogSet(path)
	if err != nil {
		t.Fatalf("empty final segment: %v", err)
	}
	if l2.Events() == 0 {
		t.Error("no events recovered from the intact segments")
	}
	if !l2.Truncated {
		t.Error("an empty final segment must flag the log Truncated")
	}
}

// TestStreamFileRotateBackground runs rotation under the concurrent
// background drainer (exercised with -race in CI): nothing may be lost or
// reordered within a track when the rings are large enough.
func TestStreamFileRotateBackground(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.log")
	sw, err := NewStreamFile(path, "wall", StreamOptions{
		RingCap:     4096,
		FlushEvery:  time.Millisecond,
		RotateBytes: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(64)
	r.SetStream(sw)
	const producers, perTrack = 4, 500
	tracks := make([]*Track, producers)
	for i := range tracks {
		tracks[i] = r.Track(string(rune('a' + i)))
	}
	var wg sync.WaitGroup
	for _, tr := range tracks {
		wg.Add(1)
		go func(tr *Track) {
			defer wg.Done()
			for n := 0; n < perTrack; n++ {
				tr.Append(Event{TS: int64(n), Act: uint64(n), Kind: KindRingPostStart})
			}
		}(tr)
	}
	wg.Wait()
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Dropped() != 0 {
		t.Fatalf("dropped %d events with room in every ring", sw.Dropped())
	}
	if sw.Rotations() == 0 {
		t.Fatal("no rotation despite 2 KiB threshold")
	}
	l, err := OpenLogSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Events() != producers*perTrack {
		t.Fatalf("events = %d, want %d", l.Events(), producers*perTrack)
	}
	for _, tr := range l.Tracks() {
		if len(tr.Events) != perTrack {
			t.Errorf("track %s: %d events, want %d", tr.Name, len(tr.Events), perTrack)
		}
		for n, ev := range tr.Events {
			if ev.TS != int64(n) {
				t.Fatalf("track %s: event %d has ts %d", tr.Name, n, ev.TS)
			}
		}
	}
}
