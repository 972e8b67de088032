package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainmon/internal/weaklyhard"
)

// scrapedDocs returns the /health documents of the blame package's scrape
// golden: a seeded full-chain run scraped mid-run and at its end, with the
// budget, blame and meta sections.
func scrapedDocs(tb testing.TB) [][]byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "blame", "testdata", "scrape_health.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	var docs [][]byte
	for _, part := range bytes.Split(raw, []byte("== "))[1:] {
		_, doc, _ := bytes.Cut(part, []byte("==\n")) // drop the "when ==" header
		docs = append(docs, doc)
	}
	if len(docs) != 2 {
		tb.Fatalf("scrape golden holds %d documents, want 2", len(docs))
	}
	return docs
}

// FuzzHealthProblem feeds arbitrary bytes to -from-health's file path as
// main takes it without -segments: readHealth, then healthProblem through
// budget.LiveProblem.Build over every segment the document names. It must
// never panic, and a problem it accepts carries only latencies, never a
// negative or wrapped one.
func FuzzHealthProblem(f *testing.F) {
	for _, doc := range scrapedDocs(f) {
		f.Add(doc)
	}
	f.Add([]byte(`{"segments":{"a":{"latency":{"count":3,"p50_ns":1e6,"p95_ns":2e6,"p99_ns":3e6,"max_ns":4e6}}}}`))
	f.Add([]byte(`{"segments":{"a":{"latency":{"count":3,"p50_ns":-1e6,"p95_ns":2e6,"p99_ns":1e300,"max_ns":4e6}}}}`))
	c := weaklyhard.Constraint{M: 2, K: 10}
	path := filepath.Join(f.TempDir(), "health.json") // each fuzz worker is its own process
	f.Fuzz(func(t *testing.T, doc []byte) {
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		p, _, err := healthSourceProblem(path, nil, 1_000_000, 400_000_000, 0, c)
		if err != nil {
			return
		}
		for _, seg := range p.Segments {
			for _, l := range seg.Latencies {
				if l < 0 {
					t.Fatalf("segment %q accepted with latency %d ns", seg.Name, l)
				}
			}
		}
	})
}

// TestScrapedDocsSolve: both scraped documents parse and build a problem
// over all seven monitored segments.
func TestScrapedDocsSolve(t *testing.T) {
	for i, doc := range scrapedDocs(t) {
		path := filepath.Join(t.TempDir(), "health.json")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		p, skipped, err := healthSourceProblem(path, nil, 1_000_000, 400_000_000, 0, weaklyhard.Constraint{M: 2, K: 10})
		if err != nil || len(p.Segments)+len(skipped) != 7 {
			t.Fatalf("document %d: %d segments, %d skipped, err %v; want all seven", i, len(p.Segments), len(skipped), err)
		}
	}
}

// TestReadHealthBounded: a document up to maxHealthBytes parses; one byte
// more is reported as an error rather than truncated to a shorter document
// that would still parse.
func TestReadHealthBounded(t *testing.T) {
	doc := scrapedDocs(t)[0]
	for _, size := range []int{maxHealthBytes, maxHealthBytes + 1} {
		path := filepath.Join(t.TempDir(), "health.json")
		padded := append(append([]byte(nil), doc...), strings.Repeat(" ", size-len(doc))...)
		if err := os.WriteFile(path, padded, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readHealth(path)
		if over := size > maxHealthBytes; over != (err != nil) || over && !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%d-byte document: err %v, want an error exactly past %d bytes", size, err, maxHealthBytes)
		}
	}
}
