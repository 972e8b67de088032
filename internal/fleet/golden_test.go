package fleet

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainmon/internal/faultinject"
	"chainmon/internal/perception"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestChaosFleetGolden pins a chaos-mix fleet byte for byte: 52 full-chain
// vehicles of 120 frames over the nominal slot plus every campaign of
// faultinject.AllCampaigns (loss bursts, reordering, duplication, clock
// faults, starvation, ...), with the oracle and blame on. The fault-free
// goldens cannot see the fault paths of the message layer — a held or
// duplicated delivery, a dropped send, a recovery receive — so this one
// pins them: any drift in delivery order, verdicts, oracle findings or
// blame attribution shows up as a diff. Regenerate deliberately with:
//
//	go test ./internal/fleet -run TestChaosFleetGolden -update
func TestChaosFleetGolden(t *testing.T) {
	base := perception.DefaultConfig()
	base.Frames = 120
	base.FullChain = true
	mix := []faultinject.Campaign{{Name: "nominal"}}
	for _, e := range faultinject.AllCampaigns() {
		mix = append(mix, e.Campaign)
	}
	res, err := Run(Config{
		Size: 4 * len(mix), Seed: 5, Jitter: Uniform(0.1), Base: base,
		Mix: mix, Oracle: true, Blame: true, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vehicles) != 52 {
		t.Fatalf("fleet has %d vehicles, want 52", len(res.Vehicles))
	}
	got := string(render(t, res))

	golden := filepath.Join("testdata", "chaos_fleet.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Errorf("chaos fleet output drifted from %s (%d vs %d bytes);\n"+
			"first differing line: %s\nif the change is intended, rerun with -update",
			golden, len(got), len(want), firstDiffLine(got, string(want)))
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
