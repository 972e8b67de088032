package realtime

import (
	"math"
	"strings"
	"testing"

	"chainmon/internal/livestats"
	"chainmon/internal/monitor"
	"chainmon/internal/online"
	"chainmon/internal/stats"
	"chainmon/internal/telemetry"
	"chainmon/internal/weaklyhard"
)

// TestLiveAgreementWallClock pins the wall-clock side of the agreement
// contract: the live sketch summarizes exactly the verdict stream the run
// resolved (same LatencySample rule as SegmentStats), its quantiles stay
// within the documented rank-error bound of the exact sample, and the
// /health document's (m,k) windows equal a reference weaklyhard.Counter
// replayed over the same resolutions.
func TestLiveAgreementWallClock(t *testing.T) {
	cfg := testConfig()
	set := livestats.NewSet(0)
	cfg.Live = set
	_, segs, err := runObserved(cfg, telemetry.NewSink(1<<12))
	if err != nil {
		t.Fatal(err)
	}

	h := set.Health()
	if h.Timebase != "wall" {
		t.Errorf("timebase = %q, want wall", h.Timebase)
	}

	mk := weaklyhard.Constraint{M: 1, K: 5}
	for _, segRes := range segs {
		// Rebuild the exact sample and window state from the run's own
		// in-order resolution stream.
		exact := stats.NewSample()
		ref := weaklyhard.NewCounter(mk)
		for _, r := range segRes.Resolutions {
			if lat, ok := r.LatencySample(); ok {
				exact.AddDuration(lat)
			}
			ref.Record(r.Status == monitor.StatusMissed)
		}

		scope := set.Segment(segRes.Name, weaklyhard.Constraint{})
		if got, want := scope.Count(), uint64(exact.Len()); got != want {
			t.Errorf("%s: sketch saw %d latencies, exact stream has %d", segRes.Name, got, want)
			continue
		}
		sorted := exact.Values()
		for _, q := range []float64{0.5, 0.95, 0.99} {
			got := scope.Quantile(q)
			pos := q * float64(len(sorted)-1)
			lo := (1 - set.Alpha()) * sorted[int(math.Floor(pos))]
			hi := (1 + set.Alpha()) * sorted[int(math.Ceil(pos))]
			if got < lo || got > hi {
				t.Errorf("%s: live p%g = %g outside [%g, %g]", segRes.Name, q*100, got, lo, hi)
			}
		}

		sh, ok := h.Segments[segRes.Name]
		if !ok || sh.SLO == nil {
			t.Errorf("%s: no SLO in health document", segRes.Name)
			continue
		}
		if sh.SLO.WindowMisses != ref.Misses() || sh.SLO.Budget != ref.Budget() {
			t.Errorf("%s: health window (%d misses, %d budget) != replayed counter (%d, %d)",
				segRes.Name, sh.SLO.WindowMisses, sh.SLO.Budget, ref.Misses(), ref.Budget())
		}
		exec, misses, viol := ref.Totals()
		if sh.SLO.Executions != exec || sh.SLO.TotalMisses != misses || sh.SLO.Violations != viol {
			t.Errorf("%s: health totals (%d,%d,%d) != replayed totals (%d,%d,%d)",
				segRes.Name, sh.SLO.Executions, sh.SLO.TotalMisses, sh.SLO.Violations, exec, misses, viol)
		}
	}

	// The chain scope slides on the ground segment's verdicts.
	ch, ok := h.Chains["rt"]
	if !ok || ch.SLO == nil {
		t.Fatal("chain rt missing from health document")
	}
	ground := segs[1]
	if got := ch.SLO.Executions; got != uint64(len(ground.Resolutions)) {
		t.Errorf("chain executions = %d, want %d", got, len(ground.Resolutions))
	}
	if got := ch.SLO.TotalMisses; got != uint64(ground.Missed) {
		t.Errorf("chain total misses = %d, want %d", got, ground.Missed)
	}

	// The drain sketch is fed by each segment's runtime DrainLatency hook:
	// every start event contributes one drain latency, and Stop's final
	// pass drains every start the producer posted.
	for _, name := range []string{SegObjects, SegGround} {
		drain := h.Segments[name].Drain
		if drain == nil || drain.Count != uint64(cfg.Frames) {
			t.Errorf("%s: drain sketch %+v, want %d drain latencies", name, drain, cfg.Frames)
		}
	}
}

// TestLiveMetricsOnWallClock checks that PublishMetrics exports the live
// gauges from a wall-clock run (the surface the /metrics endpoint and the
// -metrics-out snapshot share).
func TestLiveMetricsOnWallClock(t *testing.T) {
	cfg := testConfig()
	st, _ := online.New("wall", nil, nil) // only opening a log can fail
	cfg.Live = st.Live
	sink := st.Sink
	if _, err := Run(cfg, sink); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := sink.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`chainmon_live_latency_count{kind="segment",scope="rt/ground"} 8`,
		`chainmon_live_latency_count{kind="segment",scope="rt/objects"} 8`,
		`chainmon_live_slo_state{kind="chain",scope="rt"}`,
		`chainmon_live_status`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}

	// Snapshot/live agreement at run end: a last live scrape and the
	// -metrics-out snapshot both go through WriteMetrics with the export
	// hook republishing first, so with the run quiesced they must be
	// byte-identical — including every chainmon_live_* gauge.
	var b2 strings.Builder
	if err := sink.WriteMetrics(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("consecutive exports differ after the run ended; snapshot and live /metrics disagree")
	}
}
