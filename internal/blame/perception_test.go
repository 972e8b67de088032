package blame_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainmon/internal/adaptive"
	"chainmon/internal/blame"
	"chainmon/internal/lidar"
	"chainmon/internal/monitor"
	"chainmon/internal/online"
	"chainmon/internal/perception"
	"chainmon/internal/sim"
	"chainmon/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// lossyConfig is a full-chain run with enough network loss to exercise the
// pub-skip path and recovery handlers on both remote segments, so the
// attribution ledger sees ok, recovered and missed verdicts.
func lossyConfig(seed int64) perception.Config {
	cfg := perception.DefaultConfig()
	cfg.Seed = seed
	cfg.Frames = 150
	cfg.FullChain = true
	cfg.Network.LossProb = 0.05
	cfg.Handlers = map[string]monitor.Handler{
		perception.SegFrontRemote: func(ctx *monitor.ExceptionContext) *monitor.Recovery {
			return &monitor.Recovery{Data: &perception.FrameData{Meta: heldOver(ctx.Activation), Points: 6000}, Size: 16 * 6000}
		},
		perception.SegRearRemote: func(ctx *monitor.ExceptionContext) *monitor.Recovery {
			return &monitor.Recovery{Data: &perception.FrameData{Meta: heldOver(ctx.Activation), Points: 6000}, Size: 16 * 6000}
		},
	}
	return cfg
}

func heldOver(act uint64) lidar.FrameMeta {
	return lidar.FrameMeta{Activation: act, GroundPoints: 6000}
}

// blamedRun executes the lossy scenario with a direct sim stream writer and
// an online blame engine observing it — the wiring online.New gives
// -trace-stream runs, built by hand because opt may differ from the
// defaults — and returns the online snapshot, the engine's blame-exemplar
// flight-recorder records and the raw log bytes.
// The engine sees precisely the events, in precisely the order, that reach
// the log: that is the byte-identity contract.
func blamedRun(t *testing.T, seed int64, opt blame.Options) (blame.Doc, []telemetry.Event, []byte) {
	t.Helper()
	sink := telemetry.NewSink(1 << 14)
	var buf bytes.Buffer
	sw, err := telemetry.NewStreamWriter(&buf, "sim", telemetry.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := blame.New(opt)
	eng.SetTimebase("sim")
	sw.SetObserver(eng.Feed)
	sink.Rec.SetStream(sw) // before AttachTelemetry: tracks register on creation
	s := perception.Build(lossyConfig(seed))
	perception.AttachTelemetry(s, sink)
	s.Run()
	eng.Flush()
	exemplars := sink.Rec.Track("blame-exemplar")
	eng.FlushExemplars(exemplars)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return eng.Snapshot(blame.RecorderResolvers(sink.Rec)), exemplars.Events(), buf.Bytes()
}

// TestSimOnlineOfflineByteIdentical pins the replay contract on the sim
// timebase: the online snapshot taken at the end of a streamed run and the
// offline snapshot recomputed from the written log marshal to identical
// bytes — same ledgers, same sketch quantiles, same exemplars, same shares.
func TestSimOnlineOfflineByteIdentical(t *testing.T) {
	online, _, raw := blamedRun(t, 11, blame.Options{})
	l, err := telemetry.ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	offline := blame.FromLog(l, blame.Options{}).Snapshot(blame.LogResolvers(l))

	got, err := json.MarshalIndent(online, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(offline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("online and offline blame reports diverge\nonline:\n%s\noffline:\n%s", got, want)
	}
	if online.Timebase != "sim" || offline.Timebase != "sim" {
		t.Errorf("timebases = %q/%q, want sim/sim", online.Timebase, offline.Timebase)
	}
	if online.Flows == 0 || online.Missed == 0 {
		t.Fatalf("flows=%d missed=%d: the lossy run must attribute misses", online.Flows, online.Missed)
	}
}

// TestPressureGolden pins the engine's output when its memory caps bite:
// with a pending cap far below the run's flows and a hop cap below a long
// activation's hop count, most flows are force-finalized, hops are
// truncated, and flows are re-created after finalization. Online and
// offline replays run the same engine, so only a golden pins this path.
// Regenerate deliberately with:
//
//	go test ./internal/blame -run TestPressureGolden -update
func TestPressureGolden(t *testing.T) {
	var out bytes.Buffer
	for _, opt := range []blame.Options{
		{MaxPending: 6, MaxHops: 12},
		{MaxPending: 4, MaxHops: 12, Window: 2},
	} {
		doc, exemplars, _ := blamedRun(t, 11, opt)
		if doc.Forced == 0 || doc.TruncatedHops == 0 {
			t.Errorf("%+v: forced=%d truncated=%d, want both > 0", opt, doc.Forced, doc.TruncatedHops)
		}
		b, err := json.MarshalIndent(struct {
			Options   blame.Options
			Snapshot  blame.Doc
			Exemplars []telemetry.Event
		}{opt, doc, exemplars}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	path := filepath.Join("testdata", "pressure.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to generate): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("%s drifted (%d vs %d bytes); first differing line: %s\n"+
			"if the change is intended, rerun with -update",
			path, len(got), len(want), firstDiffLine(got, string(want)))
	}
}

// scrapedRun executes a seeded full-chain run with every online layer
// attached the way `chainmon -full -recover -adaptive -trace-stream` wires
// them — the online stack over an in-memory stream, the ECU2 pair's
// adaptive controller, the supervisor — and scrapes /health and /metrics
// through their HTTP handlers half way through and after the run. The meta
// section carries only deterministic fields; the binary's also carries the
// build version and uptime.
func scrapedRun(t *testing.T, seed int64, frames int) (health, metrics string) {
	t.Helper()
	cfg := perception.DefaultConfig()
	cfg.Seed = seed
	cfg.Frames = frames
	cfg.FullChain = true
	cfg.Handlers = map[string]monitor.Handler{
		perception.SegFrontRemote: perception.HoldOver,
		perception.SegRearRemote:  perception.HoldOver,
	}

	st, err := online.New("sim", online.Writer(&bytes.Buffer{}), func(epoch uint64) any {
		return map[string]any{"scenario": "perception", "budget_epoch": epoch}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := perception.Build(cfg)
	perception.AttachTelemetry(s, st.Sink)
	perception.AttachLive(s, st.Live)
	if _, err := st.ControlECU2(s, adaptive.DefaultHysteresis, sim.Second); err != nil {
		t.Fatal(err)
	}
	sup := monitor.NewSupervisor(s.K, 5)
	sup.Watch(s.ChainFront)
	sup.Watch(s.ChainRear)
	sup.AttachTelemetry(st.Sink)

	var hb, mb strings.Builder
	scrape := func(when string) {
		for _, ep := range []struct {
			h   http.Handler
			out *strings.Builder
		}{{st.Health, &hb}, {st.Metrics, &mb}} {
			rec := httptest.NewRecorder()
			ep.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
			ep.out.WriteString("== " + when + " ==\n")
			ep.out.Write(rec.Body.Bytes())
		}
	}
	s.K.At(sim.Time(frames)*sim.Time(cfg.Period)/2, func() { scrape("mid-run") })
	s.Run()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	scrape("end of run")
	return hb.String(), mb.String()
}

// TestScrapeByteStability pins every byte a live /health and /metrics
// scrape emits on a seeded full-chain run with every online layer
// attached: sketch quantiles, SLO burn, blame shares and exemplars,
// adaptive budget history, and the Prometheus label rendering. Regenerate
// deliberately with:
//
//	go test ./internal/blame -run TestScrapeByteStability -update
func TestScrapeByteStability(t *testing.T) {
	health, metrics := scrapedRun(t, 5, 300)
	for _, g := range []struct{ name, got string }{
		{"scrape_health.golden", health},
		{"scrape_metrics.golden", metrics},
	} {
		path := filepath.Join("testdata", g.name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden file (run with -update to generate): %v", err)
		}
		if g.got != string(want) {
			t.Errorf("%s drifted (%d vs %d bytes); first differing line: %s\n"+
				"if the change is intended, rerun with -update",
				path, len(g.got), len(want), firstDiffLine(g.got, string(want)))
		}
	}
	if !strings.Contains(health, `"exemplars"`) || !strings.Contains(health, `"budget"`) {
		t.Error("the scraped run must exercise blame exemplars and the adaptive budget section")
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return al[i] + " != " + bl[i]
		}
	}
	return "(outputs are a prefix of one another)"
}

// TestLedgerConservationOnRealRun pins the conservation invariant on the
// real full-chain run, covering the pub-skip and recovery paths: in every
// scope, per-hop ledger totals sum exactly to the end-to-end total — the
// ledger partitions each activation's latency, it never double-counts or
// leaks time.
func TestLedgerConservationOnRealRun(t *testing.T) {
	doc, _, raw := blamedRun(t, 23, blame.Options{})
	if len(doc.Scopes) == 0 {
		t.Fatal("no scopes attributed")
	}
	for _, sc := range doc.Scopes {
		var sum int64
		for _, h := range sc.Hops {
			sum += h.TotalNS
		}
		if sum != sc.E2ETotalNS {
			t.Errorf("scope %s: Σ hop totals = %d, want e2e total %d", sc.Scope, sum, sc.E2ETotalNS)
		}
		var share int64
		for _, h := range sc.Hops {
			share += h.SharePPM
		}
		if sc.TotalBlameNS > 0 && (share < 1_000_000-int64(len(sc.Hops)) || share > 1_000_000) {
			t.Errorf("scope %s: blame shares sum to %d ppm, want 1e6−ε..1e6", sc.Scope, share)
		}
	}
	// The conservation invariant above must have held over recovered
	// activations too: confirm the run actually exercised the recovery path.
	l, err := telemetry.ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, tr := range l.Tracks() {
		for _, ev := range tr.Events {
			if ev.Kind == telemetry.KindVerdict && ev.Status == telemetry.StatusRecovered {
				recovered++
			}
		}
	}
	if recovered == 0 {
		t.Error("no recovered verdicts in the run despite recovery handlers under 5% loss")
	}
}
