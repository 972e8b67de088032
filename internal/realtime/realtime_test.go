package realtime

import (
	"slices"
	"strings"
	"testing"
	"time"

	"chainmon/internal/monitor"
	"chainmon/internal/telemetry"
)

// testConfig keeps the wall-clock run short but with generous margins, so
// scheduling jitter on a loaded CI machine (and under -race) cannot flip a
// verdict: nominal work is 2 ms against a 20 ms deadline, and the stalled
// end arrives a full 10 ms after the deadline.
func testConfig() Config {
	return Config{
		Frames:    8,
		Period:    30 * time.Millisecond,
		Deadline:  20 * time.Millisecond,
		Work:      2 * time.Millisecond,
		LateEvery: 4,
		RingCap:   256,
		Seed:      1,
	}
}

// observedSegment is one segment's result with its resolutions in delivery
// order, which Run does not keep.
type observedSegment struct {
	SegmentResult
	Resolutions []monitor.Resolution
}

// runObserved runs cfg and collects every resolution on the monitor
// goroutine; run returns after that goroutine has exited.
func runObserved(cfg Config, sink *telemetry.Sink) (Result, []observedSegment, error) {
	var rs [2][]monitor.Resolution
	res, err := run(cfg, sink, func(seg int, r monitor.Resolution) { rs[seg] = append(rs[seg], r) })
	segs := make([]observedSegment, len(res.Segments))
	for i, s := range res.Segments {
		segs[i] = observedSegment{s, rs[i]}
	}
	return res, segs, err
}

func TestRunVerdicts(t *testing.T) {
	sink := telemetry.NewSink(1 << 12)
	res, segs, err := runObserved(testConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 2 {
		t.Fatalf("got %d segments, want 2", len(res.Segments))
	}
	objects, ground := segs[0], segs[1]
	// Every activation the producer started ends in a verdict or in a count.
	for _, s := range res.Segments {
		if got := s.OK + s.Missed + s.Recovered + s.Pending; got != res.Frames {
			t.Errorf("%s: ok+missed+recovered+pending = %d, want %d frames", s.Name, got, res.Frames)
		}
		if s.Dropped != 0 {
			t.Errorf("%s: %d posts dropped", s.Name, s.Dropped)
		}
	}
	if objects.OK != 8 || objects.Missed != 0 {
		t.Errorf("objects: ok=%d missed=%d, want 8/0", objects.OK, objects.Missed)
	}
	// Frames 3 and 7 stall past the deadline.
	if ground.OK != 6 || ground.Missed != 2 {
		t.Errorf("ground: ok=%d missed=%d, want 6/2", ground.OK, ground.Missed)
	}
	// Resolutions arrive in activation order (the reorder buffer's
	// guarantee holds on the wall clock too).
	for i, r := range ground.Resolutions {
		if r.Activation != uint64(i) {
			t.Fatalf("ground resolution %d is activation %d; want in-order delivery", i, r.Activation)
		}
	}
	for _, r := range ground.Resolutions {
		late := r.Activation%4 == 3
		if late && r.Status != monitor.StatusMissed {
			t.Errorf("activation %d: status %v, want missed", r.Activation, r.Status)
		}
		if !late && r.Status != monitor.StatusOK {
			t.Errorf("activation %d: status %v, want ok", r.Activation, r.Status)
		}
	}
	if res.Scans == 0 {
		t.Error("no monitor passes recorded")
	}

	// The live registry must reflect the run in Prometheus text form. With a
	// full sink the per-segment counters come from the monitor's telemetry
	// attach, not from Run itself — the values must still match the verdicts.
	var b strings.Builder
	if err := sink.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`chainmon_realtime_frames_total 8`,
		`chainmon_segment_resolutions_total{segment="rt/objects",status="ok"} 8`,
		`chainmon_segment_resolutions_total{segment="rt/ground",status="missed"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestRunNilSink proves the run works dark (no instrumentation).
func TestRunNilSink(t *testing.T) {
	cfg := testConfig()
	cfg.Frames = 3
	cfg.LateEvery = 0
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Segments[1].OK; got != 3 {
		t.Errorf("ground ok=%d, want 3", got)
	}
}

// TestMetricsLayoutSameWithoutTrace pins one -realtime metrics layout: a
// registry-only sink (an untraced CLI run) exports the same segment,
// monitor, detection and exception-handler rows as a full sink.
func TestMetricsLayoutSameWithoutTrace(t *testing.T) {
	rows := func(sink *telemetry.Sink) []string {
		cfg := testConfig()
		cfg.Frames = 4
		if _, err := Run(cfg, sink); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := sink.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(b.String(), "\n") {
			row, _, _ := strings.Cut(line, " ") // name and labels, without the value
			for _, fam := range []string{"chainmon_segment_", "chainmon_monitor_", "chainmon_detection_", "chainmon_exception_"} {
				if strings.HasPrefix(row, fam) {
					out = append(out, row)
				}
			}
		}
		return out
	}
	untraced := rows(&telemetry.Sink{Reg: telemetry.NewRegistry()})
	traced := rows(telemetry.NewSink(1 << 12))
	if len(traced) == 0 || !slices.Equal(untraced, traced) {
		t.Errorf("registry-only rows differ from traced rows\nuntraced:\n%s\ntraced:\n%s",
			strings.Join(untraced, "\n"), strings.Join(traced, "\n"))
	}
}

func TestConfigValidate(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"zero frames":        func(c *Config) { c.Frames = 0 },
		"deadline >= period": func(c *Config) { c.Deadline = c.Period },
		"work >= deadline":   func(c *Config) { c.Work = c.Deadline },
		"ring not power2":    func(c *Config) { c.RingCap = 300 },
	} {
		cfg := testConfig()
		mut(&cfg)
		if _, err := Run(cfg, nil); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}
