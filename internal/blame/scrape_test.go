package blame_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chainmon/internal/blame"
	"chainmon/internal/livestats"
	"chainmon/internal/telemetry"
	"chainmon/internal/weaklyhard"
)

// feedActivation feeds one activation of a budgeted segment: ring post and
// timeout arm at start, verdict at start+e2e.
func feedActivation(eng *blame.Engine, scope uint8, act uint64, start, e2e, budget int64, label uint16) {
	flow, status := telemetry.FlowID(scope, act), telemetry.StatusOK
	if e2e > budget {
		status = telemetry.StatusMissed
	}
	eng.Feed(0, telemetry.Event{TS: start, Act: act, Flow: flow, Kind: telemetry.KindDDSRecv, Label: label})
	eng.Feed(0, telemetry.Event{TS: start + 1, Act: act, Flow: flow, Kind: telemetry.KindRingPostStart, Label: label})
	eng.Feed(1, telemetry.Event{TS: start + 1, Act: act, Arg: start + 1 + budget, Flow: flow,
		Kind: telemetry.KindTimeoutArm, Label: label})
	eng.Feed(1, telemetry.Event{TS: start + 1 + e2e, Act: act, Arg: e2e, Flow: flow,
		Kind: telemetry.KindVerdict, Label: label, Status: status})
}

func serve(h http.Handler) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	return rec
}

// checkExposition reports a /metrics body whose families are not sorted by
// name, or whose rows within a family are not strictly sorted by label
// string (a duplicate row is a tie). The bodies carry gauges only.
func checkExposition(body string) error {
	var fam, row string
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(name, " ")
			if name <= fam {
				return fmt.Errorf("family %s follows %s", name, fam)
			}
			fam, row = name, ""
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		if row != "" && key <= row {
			return fmt.Errorf("row %s follows %s", key, row)
		}
		row = key
	}
	return nil
}

// checkScrape checks one /health and /metrics scrape pair that started
// after round r was fed (r = 0: before the first round).
func checkScrape(r int64, hb, mb *httptest.ResponseRecorder) error {
	var doc map[string]any
	dec := json.NewDecoder(hb.Body)
	if err := dec.Decode(&doc); err != nil || dec.More() {
		return fmt.Errorf("/health is not one JSON document (%v):\n%s", err, hb.Body.String())
	}
	body := mb.Body.String()
	if err := checkExposition(body); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	if r == 0 {
		return nil
	}
	if _, ok := doc["segments"].(map[string]any)[fmt.Sprintf("seg%d", r)]; !ok {
		return fmt.Errorf("a /health scrape after round %d lacks the round's segment", r)
	}
	for _, row := range []string{
		fmt.Sprintf(`chainmon_live_latency_count{kind="segment",scope="seg%d"} `, r),
		fmt.Sprintf(`chainmon_blame_scope_blame_ns{scope="chain%d"} `, r),
		fmt.Sprintf(`chainmon_blame_share_ppm{hop="seg:seg%d",scope="chain%d"} `, r, r),
		fmt.Sprintf(`chainmon_blame_segment_budget_ns{scope="chain%d",segment="seg%d"} 950`, r, r),
	} {
		if !strings.Contains(body, row) {
			return fmt.Errorf("a /metrics scrape after round %d lacks %s", r, row)
		}
	}
	return nil
}

// TestScrapesRaceFeed runs the scrape surfaces the way the wall clock does:
// one goroutine feeds a blame engine and a live set, with a new scope, hop
// and segment appearing every round, while two goroutines scrape /health
// and /metrics until the feeder stops. Run it with -race -count=10. Every
// /health body is one JSON document, every /metrics body is sorted without
// duplicates, a round's rows show up in every scrape that starts after the
// round, the final /health equals encoding/json's rendering, and a second
// registry gets the same rows and values as the first.
func TestScrapesRaceFeed(t *testing.T) {
	live := livestats.NewSet(0)
	live.SetTimebase("wall")
	eng := blame.New(blame.Options{Window: 4})
	eng.SetTimebase("wall")
	res := blame.Resolvers{
		Label: func(id uint16) string { return fmt.Sprintf("seg%d", id) },
		Scope: func(id uint8) string { return fmt.Sprintf("chain%d", id) },
	}
	newSink := func() *telemetry.Sink {
		sink := &telemetry.Sink{Reg: telemetry.NewRegistry()}
		sink.AddExportHook(func() { live.PublishMetrics(sink.Reg) })
		sink.AddExportHook(func() { eng.PublishMetrics(sink.Reg, res) })
		return sink
	}
	sink := newSink()
	live.SetBlameProvider(func() any { return eng.Snapshot(res) })
	health, metrics := live.Handler(), sink.Handler()

	const rounds = 12
	var fed atomic.Int64     // the last round whose rows exist
	var checked atomic.Int64 // scrapes that started after a round
	var failed atomic.Bool
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer close(done)
		ts := int64(0)
		for r := 1; r <= rounds; r++ {
			seg := live.Segment(fmt.Sprintf("seg%d", r), weaklyhard.Constraint{M: 1, K: 4})
			for act := uint64(1); act <= 30; act++ {
				e2e := int64(800 + 50*(act%5))
				seg.Observe(float64(e2e), e2e > 950)
				feedActivation(eng, uint8(r), act, ts, e2e, 950, uint16(r))
				ts += 1000
			}
			eng.Flush()
			fed.Store(int64(r))
			// Interleave the rounds with the scrapes: at most two scrapes
			// started before the round was stored, so a third one to
			// finish started after it.
			for n := checked.Load(); checked.Load() < n+3 && !failed.Load(); {
				runtime.Gosched()
			}
		}
	}()
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r := fed.Load()
				if err := checkScrape(r, serve(health), serve(metrics)); err != nil {
					t.Error(err)
					failed.Store(true)
					return
				}
				if r > 0 {
					checked.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := checked.Load(); n < 2*rounds {
		t.Fatalf("%d scrapes ran after a round, want at least %d", n, 2*rounds)
	}

	want, err := json.MarshalIndent(live.Health(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := serve(health).Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
		t.Errorf("final /health differs from encoding/json's rendering; first difference: %s",
			firstDiffLine(string(got), string(want)+"\n"))
	}
	first, second := serve(metrics).Body.String(), serve(newSink().Handler()).Body.String()
	if first != second {
		t.Errorf("a second registry's rows differ from the first's; first difference: %s", firstDiffLine(second, first))
	}
	if !strings.Contains(first, fmt.Sprintf(`scope="chain%d"`, rounds)) {
		t.Errorf("the last round's rows are missing:\n%s", first)
	}
}
