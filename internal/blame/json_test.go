package blame_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainmon/internal/blame"
)

// TestDocAppendJSONMatchesEncodingJSON pins the blame renderer to
// encoding/json: Doc.AppendJSON(nil, prefix, indent) equals
// json.MarshalIndent(doc, prefix, indent) on the pressure golden's docs,
// the scrape golden's blame sections, and synthetic docs covering nil and
// empty slices, every omitempty field zero and set, and names that need
// escaping, at the prefixes and indents the two callers use and a tab.
func TestDocAppendJSONMatchesEncodingJSON(t *testing.T) {
	docs := map[string]blame.Doc{"zero": {}, "empty scopes": {Scopes: []blame.ScopeDoc{}}}
	for i, opt := range []blame.Options{
		{MaxPending: 6, MaxHops: 12},
		{MaxPending: 4, MaxHops: 12, Window: 2},
	} {
		doc, _, _ := blamedRun(t, 11, opt)
		docs["pressure "+string(rune('a'+i))] = doc
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "scrape_health.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range strings.Split(string(raw), "== ")[1:] {
		var health struct{ Blame blame.Doc }
		if err := json.Unmarshal([]byte(part[strings.Index(part, "\n"):]), &health); err != nil {
			t.Fatalf("scrape golden document %d: %v", i, err)
		}
		if len(health.Blame.Scopes) == 0 {
			t.Fatalf("scrape golden document %d carries no blame scopes", i)
		}
		docs["scraped "+string(rune('a'+i))] = health.Blame
	}
	docs["synthetic"] = blame.Doc{
		Timebase: `wall "<&>"`, Epoch: 3, Flows: 10, Missed: 2, Skipped: 1, TruncatedHops: 4, Forced: 5,
		Scopes: []blame.ScopeDoc{
			{
				Scope: `chain→"<&>"`, Flows: 10, Missed: 2, Skipped: 1, E2ETotalNS: -5, TotalBlameNS: 7,
				Hops: []blame.HopDoc{{Name: "seg:a→b", Count: 1, TotalNS: 2, BlameNS: 3, SharePPM: 4,
					P50NS: 5, P95NS: 6, P99NS: 7, MaxNS: -8}},
				Segments: []blame.SegmentDoc{{Name: `<seg "x">`, Armed: 1, Missed: 2, BudgetNS: 3, Epoch: 4,
					OverrunNS: 5, DwellP50NS: 6, DwellP95NS: 7, DwellP99NS: 8, DwellMaxNS: 9}},
				Exemplars: []blame.ExemplarDoc{
					{Rank: 1, Act: 2, Flow: 3, E2ENS: 4, Status: "missed", Epoch: 5, Primary: "p&q",
						Timeline: []blame.TimelineStep{
							{Kind: "ring-post"},
							{OffsetNS: 9, Kind: "verdict", Label: "l<→", Track: "t>", ArgNS: -1, Status: 2},
						}},
					{Rank: 2, Timeline: []blame.TimelineStep{}},
					{Rank: 3},
				},
			},
			{Scope: "empty slices", Hops: []blame.HopDoc{}, Segments: []blame.SegmentDoc{},
				Exemplars: []blame.ExemplarDoc{}},
			{Scope: "nil slices"},
		},
	}
	for name, doc := range docs {
		for _, pi := range [][2]string{{"", "  "}, {"  ", "  "}, {"", "\t"}, {"  ", "\t"}} {
			want, err := json.MarshalIndent(doc, pi[0], pi[1])
			if err != nil {
				t.Fatal(err)
			}
			got := doc.AppendJSON([]byte("x"), pi[0], pi[1])
			if !bytes.Equal(got[1:], want) || got[0] != 'x' {
				t.Errorf("%s, prefix %q, indent %q: AppendJSON differs from encoding/json; first difference: %s",
					name, pi[0], pi[1], firstDiffLine(string(got[1:]), string(want)))
			}
		}
	}
}
