package faultinject

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestMatrix102SummaryGolden pins the merged report of the frozen nightly
// matrix by its sha256 and length: every oracle count and verdict of the 102
// combos. Regenerate deliberately with:
//
//	go test ./internal/faultinject -run TestMatrix102SummaryGolden -update
func TestMatrix102SummaryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 102-combo matrix")
	}
	sum := MergedSummary(RunSweep(Matrix102(), 0))
	got := fmt.Sprintf("%x %d\n", sha256.Sum256([]byte(sum)), len(sum))
	golden := filepath.Join("testdata", "matrix102_summary.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Errorf("merged Matrix102 summary drifted: sha256 and length %q, golden %q", got, want)
	}
}
