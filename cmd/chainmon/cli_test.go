package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scenarioFile resolves a shipped example scenario for a CLI run, which
// executes in its own temporary directory.
func scenarioFile(t *testing.T, name string) string {
	t.Helper()
	p, err := filepath.Abs(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkGolden compares got with testdata/cli/<name>.golden, rewriting the
// file first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "cli", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted (%d vs %d bytes); first differing line: %s\n"+
			"if the change is intended, rerun with -update",
			path, len(got), len(want), firstDiff(got, string(want)))
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("one output is a prefix of the other (%d vs %d lines)", len(al), len(bl))
}

// TestCLIGolden pins what the chainmon binary prints and writes for the
// command lines the README documents: stdout verbatim and every written
// file by SHA-256 digest. The cases share one directory and run in order,
// so the trace subcommands read the log the traced run wrote. Cases with
// the same golden must print the same bytes (a parallel sweep or fleet
// equals the serial one). Regenerate deliberately with:
//
//	go test ./cmd/chainmon -run TestCLIGolden -update
func TestCLIGolden(t *testing.T) {
	dir := t.TempDir()
	fleetArgs := []string{"fleet", "-full", "-oracle", "-blame",
		"-fault-mix", "nominal,burst-loss,latency-shift", "-fleet-size", "8", "-frames", "60",
		"-fleet-out", "fleet.json", "-metrics-out", "fleet.prom"}
	cases := []struct {
		name, golden string
		args         []string
		files        []string
	}{
		{"default", "default", nil, nil},
		{"scenario", "lossy", []string{"-config", scenarioFile(t, "lossy-degraded.json")}, nil},
		{"scenario-flags-win", "lossy_flags",
			[]string{"-config", scenarioFile(t, "lossy-degraded.json"), "-frames", "60", "-loss", "0", "-full=false"}, nil},
		{"faults", "faults", []string{"-full", "-faults", scenarioFile(t, "latency-shift.campaign.json")}, nil},
		{"seeds-serial", "seeds", []string{"-full", "-seeds", "3", "-parallel", "1"}, nil},
		{"seeds-parallel", "seeds", []string{"-full", "-seeds", "3", "-parallel", "3"}, nil},
		{"adaptive", "adaptive", []string{"-adaptive", "-deadline", "160ms", "-frames", "300"}, nil},
		{"traced", "traced",
			[]string{"-full", "-frames", "100", "-metrics-out", "m.prom", "-telemetry-trace", "t.json",
				"-telemetry-csv", "e.csv", "-trace-stream", "run.chmtrc", "-trace", "u.json"},
			[]string{"m.prom", "t.json", "e.csv", "run.chmtrc", "u.json"}},
		{"report", "report_top", []string{"trace", "report", "-top", "3", "run.chmtrc"}, nil},
		{"report-blame", "report_blame", []string{"trace", "report", "-blame", "run.chmtrc"}, nil},
		{"report-self-diff", "report_diff", []string{"trace", "report", "-diff", "run.chmtrc", "run.chmtrc"}, nil},
		{"convert", "convert", []string{"trace", "convert", "run.chmtrc", "conv.json"}, []string{"conv.json"}},
		{"fleet-serial", "fleet", append(fleetArgs, "-parallel", "1"), []string{"fleet.json", "fleet.prom"}},
		{"fleet-parallel", "fleet", append(fleetArgs, "-parallel", "4"), []string{"fleet.json", "fleet.prom"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runCLI(t, dir, c.args...)
			for _, f := range c.files {
				b, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				got += fmt.Sprintf("-- %s sha256 %s %d bytes\n", f, digest(b), len(b))
			}
			checkGolden(t, c.golden, got)
		})
	}
}
