package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestModeTable runs one case per row of the flag × mode table, plus the
// two kinds of stray input that are not flags. A case's accepted command
// line must run and exit 0; its rejected one must exit nonzero with an
// error naming the flag (and, for table rules, the mode).
func TestModeTable(t *testing.T) {
	lossy := scenarioFile(t, "lossy-degraded.json")
	chaos := scenarioFile(t, "chaos-bursty-link.json")
	campaign := scenarioFile(t, "latency-shift.campaign.json")
	sim := func(args ...string) []string { return append([]string{"-frames", "5"}, args...) }
	wall := func(args ...string) []string { return append([]string{"-realtime", "-frames", "2"}, args...) }
	fleetRun := func(args ...string) []string {
		return append([]string{"fleet", "-fleet-size", "2", "-frames", "5"}, args...)
	}
	sweep := func(args ...string) []string { return append([]string{"-seeds", "2", "-frames", "5"}, args...) }
	// A saturation search whose range brackets the knee of a tiny fleet.
	search := func(args ...string) []string {
		return fleetRun(append([]string{"-saturate", "-sat-lo", "0.1", "-sat-target", "0.5"}, args...)...)
	}
	cases := []struct {
		row      string // the flag-table row, "" for input that is not a flag
		ok, bad  []string
		mustName string // a substring of the rejection
	}{
		{"frames", fleetRun(), nil, ""},
		{"seed", sim("-seed", "2"), []string{"fleet", "-seed", "2"}, "not defined: -seed"},
		{"deadline", sim("-deadline", "50ms"), wall("-deadline", "5ms"), "-deadline does not apply in -realtime mode"},
		{"loss", sim("-loss", "0.1"), wall("-loss", "0.1"), "-loss does not apply in -realtime mode"},
		{"full", sim("-full"), wall("-full"), "-full does not apply in -realtime mode"},
		{"recover", sim("-full", "-recover"), wall("-recover"), "-recover does not apply in -realtime mode"},
		{"config", sim("-config", lossy), fleetRun("-config", chaos), "-config " + chaos + " embeds 2 faults"},
		{"faults", []string{"-full", "-frames", "20", "-faults", campaign}, wall("-faults", campaign), "-faults does not apply in -realtime mode"},
		{"seeds", sweep(), []string{"-seeds", "0"}, "-seeds must be at least 1 (sim mode)"},
		{"parallel", sweep("-parallel", "2"), sim("-parallel", "2"), "-parallel does not apply in sim mode"},
		{"trace", sim("-trace", "u.json"), sweep("-trace", "u.json"), "-trace does not apply in -seeds mode"},
		{"telemetry-trace", sim("-telemetry-trace", "t.json"), wall("-telemetry-trace", "t.json"), "-telemetry-trace does not apply in -realtime mode"},
		{"metrics-out", wall("-metrics-out", "m.prom"), sweep("-metrics-out", "m.prom"), "-metrics-out does not apply in -seeds mode"},
		{"telemetry-csv", sim("-telemetry-csv", "e.csv"), sweep("-telemetry-csv", "e.csv"), "-telemetry-csv does not apply in -seeds mode"},
		{"metrics-addr", wall("-metrics-addr", "127.0.0.1:0"), sweep("-metrics-addr", "127.0.0.1:0"), "-metrics-addr does not apply in -seeds mode"},
		{"trace-stream", wall("-trace-stream", "rt.chmtrc"), sweep("-trace-stream", "s.chmtrc"), "-trace-stream does not apply in -seeds mode"},
		{"trace-rotate", sim("-trace-stream", "s.chmtrc", "-trace-rotate", "4096"), sim("-trace-rotate", "4096"), "-trace-rotate requires -trace-stream (sim mode)"},
		{"realtime", wall(), []string{"fleet", "-realtime"}, "not defined: -realtime"},
		{"adaptive", sim("-adaptive"), sweep("-adaptive"), "-adaptive does not apply in -seeds mode"},
		{"adapt-interval", sim("-adaptive", "-adapt-interval", "200ms"), sim("-adapt-interval", "2s"), "-adapt-interval requires -adaptive (sim mode)"},
		{"adapt-guard", wall("-adaptive", "-adapt-guard", "0.2"), wall("-adapt-guard", "0.2"), "-adapt-guard requires -adaptive (-realtime mode)"},
		{"fleet-size", fleetRun(), sim("-fleet-size", "2"), "not defined: -fleet-size"},
		{"fleet-seed", fleetRun("-fleet-seed", "3"), sim("-fleet-seed", "3"), "not defined: -fleet-seed"},
		{"fleet-jitter", fleetRun("-fleet-jitter", "0.2"), sim("-fleet-jitter", "0.2"), "not defined: -fleet-jitter"},
		{"fleet-out", fleetRun("-fleet-out", "f.json"), sim("-fleet-out", "f.json"), "not defined: -fleet-out"},
		{"fault-mix", fleetRun("-fault-mix", "nominal,burst-loss"), sim("-fault-mix", "burst-loss"), "not defined: -fault-mix"},
		{"oracle", fleetRun("-oracle"), sim("-oracle"), "not defined: -oracle"},
		{"blame", fleetRun("-blame"), sim("-blame"), "not defined: -blame"},
		{"saturate", search(), sim("-saturate"), "not defined: -saturate"},
		{"sat-lo", search(), fleetRun("-sat-lo", "0.3"), "-sat-lo requires -saturate (fleet mode)"},
		{"sat-hi", search("-sat-hi", "1"), fleetRun("-sat-hi", "1"), "-sat-hi requires -saturate (fleet mode)"},
		{"sat-step", search("-sat-step", "0.3"), fleetRun("-sat-step", "0.2"), "-sat-step requires -saturate (fleet mode)"},
		{"sat-target", search(), fleetRun("-sat-target", "0.2"), "-sat-target requires -saturate (fleet mode)"},
		{"", nil, sim("bogus"), `unexpected argument "bogus" in sim mode`},
		{"", nil, []string{"flet", "-fleet-size", "2"}, `unexpected argument "flet" in sim mode`},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.row] = true
		name := c.row
		if name == "" {
			name = "not-a-flag"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if c.ok != nil {
				runCLI(t, t.TempDir(), c.ok...)
			}
			if c.bad == nil {
				return
			}
			_, stderr, code := execCLI(t, t.TempDir(), c.bad...)
			if code == 0 || !strings.Contains(stderr, c.mustName) {
				t.Errorf("chainmon %s: exit %d, want nonzero with %q in stderr:\n%s",
					strings.Join(c.bad, " "), code, c.mustName, stderr)
			}
		})
	}
	for row := range (&runConfig{}).flagTable() {
		if !covered[row] {
			t.Errorf("flag-table row -%s has no case", row)
		}
	}
}

// TestRealtimeReportMatchesRun checks a wall-clock run for self-consistency:
// the verdict counts "trace report" recomputes from the streamed log equal
// the run's own summary. Verdicts on the wall clock depend on host
// scheduling, so no count is fixed.
func TestRealtimeReportMatchesRun(t *testing.T) {
	dir := t.TempDir()
	run := runCLI(t, dir, "-realtime", "-frames", "20", "-trace-stream", "rt.chmtrc")
	report := runCLI(t, dir, "trace", "report", "rt.chmtrc")
	rows := regexp.MustCompile(`(?m)^  (rt/\S+) +ok=(\d+) missed=(\d+) recovered=(\d+) pending=\d+ dropped=\d+$`).FindAllStringSubmatch(run, -1)
	if len(rows) != 2 {
		t.Fatalf("want two segment rows in the run summary:\n%s", run)
	}
	for _, r := range rows {
		want := regexp.MustCompile(`(?m)^\s*` + regexp.QuoteMeta(r[1]) +
			` +ok=` + r[2] + ` +recovered=` + r[4] + ` +missed=` + r[3] + `\b`)
		if !want.MatchString(report) {
			t.Errorf("%s ok=%s missed=%s recovered=%s in the run, not in the report:\n%s", r[1], r[2], r[3], r[4], report)
		}
	}
}

// TestTraceWarnsOnTruncatedLog cuts a streamed log inside its last record:
// "trace report" still reads it, and says so in one line on stderr.
func TestTraceWarnsOnTruncatedLog(t *testing.T) {
	dir := t.TempDir()
	runCLI(t, dir, "-full", "-frames", "20", "-trace-stream", "run.chmtrc")
	if _, stderr, code := execCLI(t, dir, "trace", "report", "run.chmtrc"); code != 0 || stderr != "" {
		t.Fatalf("intact log: exit %d, stderr %q", code, stderr)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "run.chmtrc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cut.chmtrc"), raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := execCLI(t, dir, "trace", "report", "cut.chmtrc")
	if code != 0 || !strings.Contains(stdout, "timebase sim") {
		t.Fatalf("cut log: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "warning: cut.chmtrc ends inside a record") {
		t.Errorf("want one warning line on stderr, got %q", stderr)
	}
}
