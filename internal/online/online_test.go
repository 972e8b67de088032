package online_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"chainmon/internal/blame"
	"chainmon/internal/online"
	"chainmon/internal/perception"
	"chainmon/internal/telemetry"
)

// TestNewShapes checks what New works out from the timebase and from
// whether a log exists. The wall clock without a log gets a registry-only
// sink, so no blame and no meta section; every other shape has a flight
// recorder, blame and both sections, and /health lists the flight recorder
// and the log as drop sources where they exist. On the sim, a run checks
// that blame sees each event exactly once: its online snapshot equals the
// offline replay of the run's log, with or without the log, and the log
// carries every exemplar admission. The wall shape with a log is run by
// realtime's TestBlameOnlineOfflineByteIdenticalWall.
func TestNewShapes(t *testing.T) {
	var simWant []byte // the offline replay of the sim run's log
	for _, c := range []struct {
		name, timebase string
		log            bool
		drops          []string
	}{
		{"sim/log", "sim", true, []string{"flight-recorder", "trace-stream"}},
		{"sim/no-log", "sim", false, []string{"flight-recorder"}},
		{"wall/log", "wall", true, []string{"flight-recorder", "trace-stream"}},
		{"wall/no-log", "wall", false, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			var openLog online.Opener
			if c.log {
				openLog = online.Writer(&buf)
			}
			st, err := online.New(c.timebase, openLog, func(epoch uint64) any {
				return map[string]uint64{"budget_epoch": epoch}
			})
			if err != nil {
				t.Fatal(err)
			}
			if (st.Stream != nil) != c.log {
				t.Fatalf("stream = %v, want a log %v", st.Stream, c.log)
			}
			h := st.Live.Health()
			var drops []string
			for name := range h.Drops {
				drops = append(drops, name)
			}
			slices.Sort(drops)
			if !slices.Equal(drops, c.drops) {
				t.Errorf("/health drop sources = %v, want %v", drops, c.drops)
			}
			if c.timebase == "wall" && !c.log {
				if st.Sink.Rec != nil || st.Sink.Reg == nil || st.Blame != nil || h.Blame != nil || h.Meta != nil {
					t.Errorf("recorder=%v blame=%v sections blame=%v meta=%v, want a registry-only sink and no blame",
						st.Sink.Rec != nil, st.Blame != nil, h.Blame != nil, h.Meta != nil)
				}
			} else if st.Sink.Rec == nil || st.Blame == nil || h.Blame == nil || h.Meta == nil {
				t.Errorf("recorder=%v blame=%v sections blame=%v meta=%v, want all four",
					st.Sink.Rec != nil, st.Blame != nil, h.Blame != nil, h.Meta != nil)
			}
			if c.timebase == "wall" {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				return
			}

			s := perception.Build(perception.DefaultConfig())
			perception.AttachTelemetry(s, st.Sink)
			perception.AttachLive(s, st.Live)
			s.Run()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			doc := st.Blame.Snapshot(blame.RecorderResolvers(st.Sink.Rec))
			if doc.Flows == 0 || doc.Missed == 0 {
				t.Fatalf("flows=%d missed=%d: the run must attribute misses", doc.Flows, doc.Missed)
			}
			got := doc.AppendJSON(nil, "", "  ")
			if c.log {
				l, err := telemetry.ReadLog(&buf)
				if err != nil {
					t.Fatal(err)
				}
				simWant = blame.FromLog(l, blame.Options{}).Snapshot(blame.LogResolvers(l)).AppendJSON(nil, "", "  ")
				if n := len(st.Sink.Rec.Track("blame-exemplar").Events()); n == 0 || n != exemplars(l) {
					t.Errorf("%d exemplar admissions, %d of them logged", n, exemplars(l))
				}
			}
			if !bytes.Equal(got, simWant) {
				t.Errorf("online blame differs from the offline replay of the log\nonline:\n%s\noffline:\n%s", got, simWant)
			}
		})
	}
}

// TestOnlineStackSetupBytes gates what building the fully wired sim stack
// costs in memory before it records anything: the stack with a log, and the
// seed-1 full chain built and attached to it. A flight-recorder track holds
// only the chunks it has written into, so its capacity no longer costs
// memory at set-up; sizing each track's whole ring up front took 19.1 MB.
func TestOnlineStackSetupBytes(t *testing.T) {
	cfg := perception.DefaultConfig()
	cfg.Seed = 1
	cfg.FullChain = true
	var buf bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st, err := online.New("sim", online.Writer(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := perception.Build(cfg)
	perception.AttachTelemetry(s, st.Sink)
	runtime.ReadMemStats(&m1)
	const limit = 1 << 20
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("set-up allocated %d bytes over %d tracks", got, len(st.Sink.Rec.Tracks()))
	if got >= limit {
		t.Errorf("set-up allocated %d bytes, want under %d", got, limit)
	}
	runtime.KeepAlive(s)
}

// exemplars counts the log's blame-exemplar records.
func exemplars(l *telemetry.Log) int {
	for _, tr := range l.Tracks() {
		if tr.Name == "blame-exemplar" {
			return len(tr.Events)
		}
	}
	return 0
}
