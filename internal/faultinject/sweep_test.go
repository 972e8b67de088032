package faultinject

import (
	"testing"
)

func TestMatrixSizes(t *testing.T) {
	if n := len(Matrix102()); n != 102 {
		t.Errorf("Matrix102 has %d combos", n)
	}
	if n := len(PRMatrix()); n != 23 {
		t.Errorf("PRMatrix has %d combos", n)
	}
	if n := len(Matrix10K()); n != 10000 {
		t.Errorf("Matrix10K has %d combos", n)
	}
	for _, c := range Matrix10K() {
		if err := c.Campaign.Validate(); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
}

// TestSweepParallelDeterminism is the tentpole guarantee: running the PR
// chaos matrix through the sharded engine at four workers produces output
// byte-identical to the serial run — same merged report text, same oracle
// verdicts, same sanity outcomes, regardless of worker interleaving. The PR
// CI job runs this under -race, so it also proves no state is shared
// between shards.
func TestSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism runs the PR matrix twice")
	}
	combos := PRMatrix()
	serial := RunSweep(combos, 1)
	par := RunSweep(combos, 4)

	if a, b := MergedSummary(serial), MergedSummary(par); a != b {
		t.Fatalf("parallel merged report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	for i := range serial {
		if serial[i].Ok() != par[i].Ok() {
			t.Errorf("%s: serial ok=%v, parallel ok=%v", serial[i].Combo, serial[i].Ok(), par[i].Ok())
		}
	}
	// The PR matrix itself must be green, otherwise the identity above
	// could be two identically-broken runs.
	for _, it := range serial {
		if !it.Ok() {
			t.Errorf("%s failed: err=%v sanity=%v\n%s", it.Combo, it.Err, it.Sanity, it.Report.Summary())
		}
	}
}
