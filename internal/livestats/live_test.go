package livestats

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"chainmon/internal/telemetry"
	"chainmon/internal/weaklyhard"
)

func TestSetHealthDocument(t *testing.T) {
	set := NewSet(0)
	set.SetTimebase("sim")
	seg := set.Segment("rt/ground", weaklyhard.Constraint{M: 1, K: 5})
	chain := set.Chain("rt", weaklyhard.Constraint{M: 2, K: 10})
	free := set.Segment("rt/objects", weaklyhard.Constraint{}) // no SLO
	set.AddDropSource("stream", func() uint64 { return 7 })

	seg.Observe(1e6, false)
	seg.Observe(2e6, true)
	seg.ObserveDrain(500)
	chain.Observe(3e6, false)
	free.Observe(4e6, false)

	h := set.Health()
	if h.Status != "burning" {
		t.Errorf("status = %q, want burning (1 miss vs m=1)", h.Status)
	}
	if h.Timebase != "sim" {
		t.Errorf("timebase = %q", h.Timebase)
	}
	sg, ok := h.Segments["rt/ground"]
	if !ok {
		t.Fatal("rt/ground missing from health")
	}
	if sg.SLO == nil || sg.SLO.WindowMisses != 1 || sg.SLO.Budget != 0 || sg.SLO.State != "burning" {
		t.Errorf("rt/ground SLO = %+v", sg.SLO)
	}
	if sg.Latency.Count != 2 {
		t.Errorf("rt/ground latency count = %d", sg.Latency.Count)
	}
	if sg.Drain == nil || sg.Drain.Count != 1 {
		t.Errorf("rt/ground drain = %+v", sg.Drain)
	}
	if so := h.Segments["rt/objects"]; so.SLO != nil {
		t.Error("unconstrained segment should have no SLO")
	}
	ch, ok := h.Chains["rt"]
	if !ok {
		t.Fatal("chain rt missing from health")
	}
	if ch.SLO == nil || ch.SLO.M != 2 || ch.SLO.K != 10 {
		t.Errorf("chain SLO = %+v", ch.SLO)
	}
	if h.Drops["stream"] != 7 {
		t.Errorf("drops = %v", h.Drops)
	}
}

func TestSetHandlerServesJSON(t *testing.T) {
	set := NewSet(0)
	set.SetTimebase("wall")
	set.Segment("a", weaklyhard.Constraint{M: 1, K: 3}).Observe(1e6, false)

	rec := httptest.NewRecorder()
	set.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("health endpoint did not serve valid JSON: %v\n%s", err, rec.Body.String())
	}
	if h.Status != "ok" || h.Timebase != "wall" {
		t.Errorf("decoded health = %+v", h)
	}
	if h.Segments["a"].Latency.Count != 1 {
		t.Errorf("segment a = %+v", h.Segments["a"])
	}
}

// failingWriter is a response whose client has gone.
type failingWriter struct{ h http.Header }

func (w failingWriter) Header() http.Header     { return w.h }
func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }
func (failingWriter) WriteHeader(int)           {}

// TestSetHandlerAfterFailedWrite pins the pooled /health writer's error
// path: a scrape whose client has gone must not leave its write error
// behind for the next scrape.
func TestSetHandlerAfterFailedWrite(t *testing.T) {
	set := NewSet(0)
	set.Segment("a", weaklyhard.Constraint{M: 1, K: 3}).Observe(1e6, false)
	h := set.Handler()
	for i := 0; i < 3; i++ {
		h.ServeHTTP(failingWriter{http.Header{}}, httptest.NewRequest("GET", "/health", nil))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
		var doc Health
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("scrape after a failed write served %q: %v", rec.Body.String(), err)
		}
	}
}

// TestSetHandlerUnencodableSection: a provider value encoding/json rejects
// leaves the monitor unable to answer, so the scrape gets 500 with a
// one-line error instead of 200 with an empty body. The pooled document
// stays usable: the next scrape with a good provider gets the whole
// document.
func TestSetHandlerUnencodableSection(t *testing.T) {
	set := NewSet(0)
	set.Segment("a", weaklyhard.Constraint{M: 1, K: 3}).Observe(1e6, false)
	h := set.Handler()
	for i := 0; i < 3; i++ {
		set.SetMetaProvider(func() any { return map[string]any{"uptime_ns": math.NaN()} })
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
		if body := rec.Body.String(); rec.Code != http.StatusInternalServerError ||
			strings.Count(body, "\n") != 1 || !strings.HasSuffix(body, "\n") || !strings.Contains(body, "meta") {
			t.Fatalf("NaN meta section answered %d %q, want 500 and one line naming the section", rec.Code, body)
		}

		set.SetMetaProvider(func() any { return map[string]any{"uptime_ns": 1} })
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
		want, err := json.MarshalIndent(set.Health(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || rec.Body.String() != string(want)+"\n" {
			t.Fatalf("scrape after a failed one answered %d with %q, want 200 with %q", rec.Code, rec.Body.String(), want)
		}
	}
}

func TestSetPublishMetrics(t *testing.T) {
	set := NewSet(0)
	seg := set.Segment("rt/ground", weaklyhard.Constraint{M: 1, K: 5})
	for i := 0; i < 99; i++ {
		seg.Observe(1e6, false)
	}
	seg.Observe(5e7, true)

	reg := telemetry.NewRegistry()
	set.PublishMetrics(reg)
	var buf strings.Builder
	if err := (&telemetry.Sink{Reg: reg}).WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`chainmon_live_latency_ns{kind="segment",q="p50",scope="rt/ground"}`,
		`chainmon_live_latency_ns{kind="segment",q="max",scope="rt/ground"} 50000000`,
		`chainmon_live_latency_count{kind="segment",scope="rt/ground"} 100`,
		`chainmon_live_latency_sketch_buckets{kind="segment",scope="rt/ground"}`,
		`chainmon_live_slo_window_misses{kind="segment",scope="rt/ground"} 1`,
		`chainmon_live_slo_budget{kind="segment",scope="rt/ground"} 0`,
		`chainmon_live_slo_state{kind="segment",scope="rt/ground"} 2`,
		`chainmon_live_slo_burn_ppm{kind="segment",scope="rt/ground"} 1000000`,
		`chainmon_live_status 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}

func TestSetConcurrentFeedAndScrape(t *testing.T) {
	// The hot path (Observe) and the scrape path (Health/PublishMetrics)
	// run on different goroutines in -realtime; this is the -race witness.
	// Two scrapers share the pooled /health writers, and every response
	// must be one whole document.
	set := NewSet(0)
	seg := set.Segment("s", weaklyhard.Constraint{M: 1, K: 10})
	reg := telemetry.NewRegistry()
	handler := set.Handler()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			seg.Observe(float64(i)*1e3, i%7 == 0)
		}
	}()
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
				var h Health
				if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
					t.Errorf("concurrent scrape served invalid JSON: %v", err)
					return
				}
				set.PublishMetrics(reg)
			}
		}()
	}
	wg.Wait()
	if seg.Count() != 5000 {
		t.Errorf("count = %d", seg.Count())
	}
}

func TestSetScopeReuse(t *testing.T) {
	set := NewSet(0)
	a := set.Segment("s", weaklyhard.Constraint{})
	b := set.Segment("s", weaklyhard.Constraint{M: 1, K: 2})
	if a != b {
		t.Fatal("same segment name must return the same scope")
	}
	// The later, valid constraint upgrades the quantiles-only scope.
	if a.State() != StateOK {
		t.Errorf("state = %v", a.State())
	}
	a.Observe(1, true)
	if a.State() != StateBurning {
		t.Errorf("upgraded scope did not track the SLO: %v", a.State())
	}
}

// selfRendered is a section value with an AppendJSON method, as blame.Doc
// has: the handler must splice what it appends one level deep.
type selfRendered struct {
	Name  string         `json:"name"`
	Share float64        `json:"share"`
	Hops  []int          `json:"hops"`
	Empty map[string]int `json:"empty"`
}

func (v selfRendered) AppendJSON(dst []byte, prefix, indent string) []byte {
	b, err := json.MarshalIndent(v, prefix, indent)
	if err != nil {
		panic(err)
	}
	return append(dst, b...)
}

// TestHandlerBytesEqualEncodingJSON pins the /health handler's document to
// encoding/json's rendering of the same state,
// json.MarshalIndent(set.Health(), "", "  ") plus a newline, across the
// document's shapes: no scopes, chains only, drain sketches, no drop
// sources, repeated drop names, names that need escaping, and each section
// provider present or absent.
func TestHandlerBytesEqualEncodingJSON(t *testing.T) {
	sets := map[string]func() *Set{
		"no scopes": func() *Set { return NewSet(0) },
		"chains only": func() *Set {
			set := NewSet(0.02)
			set.SetTimebase("wall")
			set.Chain("b", weaklyhard.Constraint{M: 0, K: 1}).Observe(3e6, true)
			set.Chain("a", weaklyhard.Constraint{M: 2, K: 10}).Observe(1.5e-3, false)
			set.AddDropSource("trace-stream", func() uint64 { return 1 })
			return set
		},
		"segments with drain sketches, no drop sources": func() *Set {
			set := NewSet(0)
			set.SetTimebase("sim")
			for i, name := range []string{"z/objects", "a/ground", "m/fusion"} {
				sc := set.Segment(name, weaklyhard.Constraint{M: 1, K: 4})
				for j := 0; j < 50*(i+1); j++ {
					sc.Observe(float64(1e6+j*7919), j%9 == 0)
					sc.ObserveDrain(float64(200 + j))
				}
			}
			set.Segment("unconstrained", weaklyhard.Constraint{}).Observe(42, false)
			return set
		},
		"escaped names, repeated drop names": func() *Set {
			set := NewSet(0)
			set.SetTimebase(`t"<&>`)
			set.Segment(`seg "<&>"`, weaklyhard.Constraint{M: 1, K: 2}).Observe(1e6, false)
			set.Segment("a→b"+string(rune(0x2028)), weaklyhard.Constraint{}).Observe(2e6, false)
			set.Chain("\x01chain\xff", weaklyhard.Constraint{M: 1, K: 2}).Record(true)
			set.AddDropSource("z", func() uint64 { return 5 })
			set.AddDropSource("b<", func() uint64 { return 2 })
			set.AddDropSource("z", func() uint64 { return 7 })
			set.AddDropSource("a", func() uint64 { return 0 })
			return set
		},
	}
	for name, build := range sets {
		for mask := 0; mask < 8; mask++ {
			withBudget, withBlame, withMeta := mask&1 != 0, mask&2 != 0, mask&4 != 0
			t.Run(fmt.Sprintf("%s/budget=%v/blame=%v/meta=%v", name, withBudget, withBlame, withMeta), func(t *testing.T) {
				set := build()
				if withBudget {
					set.SetBudgetProvider(func(dst []byte) []byte {
						return append(dst, "{\n    \"epoch\": 3,\n    \"none\": []\n  }"...)
					})
				}
				if withBlame {
					set.SetBlameProvider(func() any {
						return selfRendered{Name: `s<1>&"`, Share: 0.25, Hops: []int{1, 2}, Empty: map[string]int{}}
					})
				}
				if withMeta {
					set.SetMetaProvider(func() any { return map[string]any{"scenario": "unit", "uptime_ns": 12.5} })
				}
				h := set.Handler()
				for scrape := 0; scrape < 2; scrape++ { // a fresh pooled writer, then a warm one
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/health", nil))
					want, err := json.MarshalIndent(set.Health(), "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if got := rec.Body.String(); rec.Code != http.StatusOK || got != string(want)+"\n" {
						t.Fatalf("scrape %d answered %d:\n%s\nwant encoding/json's\n%s", scrape, rec.Code, got, want)
					}
				}
			})
		}
	}
}

// TestPublishMetricsAllocFree is the CI allocation gate on the live set's
// /metrics export hook: once a registry's rows are bound, republishing
// them sets each bound gauge and allocates nothing.
func TestPublishMetricsAllocFree(t *testing.T) {
	set := NewSet(0)
	for _, name := range []string{"objects", "ground"} {
		sc := set.Segment(name, weaklyhard.Constraint{M: 1, K: 10})
		for i := 0; i < 1000; i++ {
			sc.Observe(float64(5_000_000+i*1000), i%50 == 0)
			sc.ObserveDrain(float64(1000 + i))
		}
	}
	set.Chain("e2e", weaklyhard.Constraint{M: 0, K: 1}).Observe(9e6, true)
	reg := telemetry.NewRegistry()
	set.PublishMetrics(reg) // binds every row
	if allocs := testing.AllocsPerRun(100, func() { set.PublishMetrics(reg) }); allocs != 0 {
		t.Fatalf("a publish that adds no row allocates %.0f, want 0", allocs)
	}
}
