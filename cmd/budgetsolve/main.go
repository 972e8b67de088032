// Command budgetsolve determines minimum segment deadlines from a recorded
// trace (Section III-C of the paper): it reads a trace file produced by
// cmd/chainmon -trace (JSON) or the CSV export, extends the latencies by
// d_ex, and solves the constraint satisfaction problem of Eqs. 2–7.
//
// With -from-health the input is a live /health document instead — either
// scraped from a running monitor's -metrics-addr endpoint or saved to a
// file. The quantile snapshots are expanded through the same live frontend
// the adaptive budget controller uses (budget.LiveProblem), so an offline
// solve over a scraped snapshot reproduces exactly the deadlines the online
// loop would actuate from it.
//
// Usage:
//
//	budgetsolve -trace t.json -m 2 -k 10 -be2e 400ms [-bseg 400ms]
//	            [-dex 1ms] [-solver auto|independent|greedy|exact]
//	budgetsolve -from-health http://host:9090/health -segments a,b
//	            -m 2 -k 10 -be2e 400ms [-dex 1ms]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"chainmon/internal/budget"
	"chainmon/internal/livestats"
	"chainmon/internal/sim"
	"chainmon/internal/trace"
	"chainmon/internal/weaklyhard"
)

func main() {
	tracePath := flag.String("trace", "", "trace file (JSON from cmd/chainmon -trace, or CSV)")
	fromHealth := flag.String("from-health", "", "/health document as input: a http(s):// URL scraped live, or a saved JSON file")
	m := flag.Int("m", 2, "tolerated misses m")
	k := flag.Int("k", 10, "window size k")
	be2e := flag.Duration("be2e", 400*time.Millisecond, "end-to-end budget B_e2e")
	bseg := flag.Duration("bseg", 0, "per-segment cap B_seg (0 = unconstrained)")
	dex := flag.Duration("dex", time.Millisecond, "exception handling WCRT d_ex")
	solver := flag.String("solver", "auto", "solver: auto, independent, greedy, exact")
	semantics := flag.String("semantics", "eq7", "window semantics: eq7 (the paper's additive Eq. 7) or or (disjunctive chain violations)")
	segments := flag.String("segments", "", "comma-separated segment names forming the chain, in order (default: all segments in file order; sorted by name with -from-health)")
	flag.Parse()

	if (*tracePath == "") == (*fromHealth == "") {
		fmt.Fprintln(os.Stderr, "exactly one of -trace and -from-health is required")
		flag.Usage()
		os.Exit(2)
	}

	c := weaklyhard.Constraint{M: *m, K: *k}
	var p budget.Problem
	if *fromHealth != "" {
		var skipped []string
		var err error
		p, skipped, err = healthSourceProblem(*fromHealth, splitSegments(*segments), int64(*dex), int64(*be2e), int64(*bseg), c)
		if err != nil {
			log.Fatal(err)
		}
		if len(skipped) > 0 {
			fmt.Printf("skipped unobserved segments: %s\n", strings.Join(skipped, ", "))
		}
	} else {
		tr, err := readTrace(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if order := splitSegments(*segments); order != nil {
			// A trace file may contain segments of several (parallel) chains;
			// restrict to the requested chain members, in the given order.
			var filtered trace.Trace
			for _, name := range order {
				st := tr.Segment(name)
				if st == nil {
					log.Fatalf("segment %q not in trace (have %s)", name, segmentNames(tr))
				}
				filtered.Segments = append(filtered.Segments, st)
			}
			tr = &filtered
		}

		p = budget.Problem{
			DEx:        int64(*dex),
			Be2e:       int64(*be2e),
			Bseg:       int64(*bseg),
			Constraint: c,
		}
		aligned := alignAll(tr)
		for i, st := range tr.Segments {
			p.Segments = append(p.Segments, budget.SegmentInput{
				Name:        st.Segment,
				Latencies:   aligned[i],
				Propagation: st.Propagation,
			})
		}
	}

	var a budget.Assignment
	switch *semantics {
	case "eq7":
		switch *solver {
		case "independent":
			a = budget.SolveIndependent(p)
		case "greedy":
			a = budget.SolveGreedy(p)
		case "exact":
			a = budget.SolveExact(p, 64)
		case "auto":
			_, a = budget.Schedulable(p)
		default:
			log.Fatalf("unknown solver %q", *solver)
		}
	case "or":
		a = budget.SolveExactOR(p, 64)
	default:
		log.Fatalf("unknown semantics %q", *semantics)
	}

	fmt.Printf("constraint %v, B_e2e=%v, B_seg=%v, d_ex=%v, %d aligned activations\n",
		p.Constraint, *be2e, *bseg, *dex, len(p.Segments[0].Latencies))
	if !a.Feasible {
		fmt.Printf("NOT SCHEDULABLE: %s\n", a.Reason)
		os.Exit(1)
	}
	fmt.Printf("schedulable, Σd = %v (%.1f%% of budget)\n",
		sim.Duration(a.Sum), 100*float64(a.Sum)/float64(p.Be2e))
	for i, d := range a.Deadlines {
		fmt.Printf("  %-24s d = %v\n", p.Segments[i].Name, sim.Duration(d))
	}
	verify := p.Verify
	if *semantics == "or" {
		verify = p.VerifyOR
	}
	if ok, why := verify(a.Deadlines); !ok {
		log.Fatalf("internal error: assignment failed verification: %s", why)
	}
}

// healthSourceProblem reads the /health document at src and solves over the
// segments in order, or over every segment the document names, sorted by
// name, when order is nil.
func healthSourceProblem(src string, order []string, dex, be2e, bseg int64, c weaklyhard.Constraint) (budget.Problem, []string, error) {
	h, err := readHealth(src)
	if err != nil {
		return budget.Problem{}, nil, err
	}
	if order == nil {
		for name := range h.Segments {
			order = append(order, name)
		}
		sort.Strings(order)
	}
	return healthProblem(h, order, dex, be2e, bseg, c)
}

// healthProblem turns a /health document into a solver problem through the
// live frontend — the exact code path the adaptive controller's ticks use,
// which is what keeps offline and online answers in agreement (pinned by
// TestHealthProblemMatchesControllerFrontend).
func healthProblem(h livestats.Health, order []string, dex, be2e, bseg int64, c weaklyhard.Constraint) (budget.Problem, []string, error) {
	segs, err := budget.FromHealth(h, order, nil)
	if err != nil {
		return budget.Problem{}, nil, err
	}
	lp := budget.LiveProblem{
		Segments: segs, DEx: dex, Be2e: be2e, Bseg: bseg, Constraint: c,
	}
	return lp.Build()
}

// maxHealthBytes bounds a /health document read from a URL or a file. A
// live document with a full adaptive history and blame attribution is a few
// hundred KB; a longer one is reported as an error, never truncated.
const maxHealthBytes = 8 << 20

// readHealth loads a /health document from a URL or a file.
func readHealth(src string) (livestats.Health, error) {
	var h livestats.Health
	var r io.Reader
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, err := http.Get(src)
		if err != nil {
			return h, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return h, fmt.Errorf("scraping %s: %s", src, resp.Status)
		}
		r = resp.Body
	} else {
		f, err := os.Open(src)
		if err != nil {
			return h, err
		}
		defer f.Close()
		r = f
	}
	raw, err := io.ReadAll(io.LimitReader(r, maxHealthBytes+1))
	if err != nil {
		return h, fmt.Errorf("reading %s: %w", src, err)
	}
	if len(raw) > maxHealthBytes {
		return h, fmt.Errorf("health document %s exceeds %d bytes", src, maxHealthBytes)
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		return h, fmt.Errorf("parsing health document: %w", err)
	}
	return h, nil
}

func splitSegments(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func segmentNames(tr *trace.Trace) string {
	names := make([]string, len(tr.Segments))
	for i, st := range tr.Segments {
		names[i] = st.Segment
	}
	return strings.Join(names, ", ")
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return trace.ReadCSV(f)
	}
	return trace.ReadJSON(f)
}

// alignAll restricts every segment to the activations all segments share.
func alignAll(tr *trace.Trace) [][]int64 {
	count := map[uint64]int{}
	for _, st := range tr.Segments {
		for _, a := range st.Activations {
			count[a]++
		}
	}
	out := make([][]int64, len(tr.Segments))
	for i, st := range tr.Segments {
		for j, a := range st.Activations {
			if count[a] == len(tr.Segments) {
				out[i] = append(out[i], int64(st.Latencies[j]))
			}
		}
	}
	return out
}
