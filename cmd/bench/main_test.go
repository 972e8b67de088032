package main

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as the bench binary: a child process
// started with it set runs main with its own arguments.
const runMainEnv = "BENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func rows(rs ...benchRow) report {
	return report{SchemaVersion: schemaVersion, Benchmarks: rs}
}

// TestGate pins the allocation gate's verdict on each kind of difference
// between a fresh report and its baseline.
func TestGate(t *testing.T) {
	base := rows(
		benchRow{Name: "a", NsPerOp: 100, AllocsPerOp: 2},
		benchRow{Name: "b", NsPerOp: 100, AllocsPerOp: 0},
	)
	for _, tc := range []struct {
		name   string
		rep    report
		base   report
		gateNs float64
		fail   []string // names of the failing findings
		skip   []string // names of the skipped rows
	}{
		{name: "same", rep: base, base: base},
		{name: "fewer allocs", rep: rows(
			benchRow{Name: "a", NsPerOp: 100, AllocsPerOp: 1},
			benchRow{Name: "b", NsPerOp: 100}), base: base},
		{name: "missing row", rep: rows(benchRow{Name: "a", NsPerOp: 100, AllocsPerOp: 2}),
			base: base, fail: []string{"b"}},
		{name: "renamed row", rep: rows(
			benchRow{Name: "a", NsPerOp: 100, AllocsPerOp: 2},
			benchRow{Name: "b2", NsPerOp: 100}),
			base: base, fail: []string{"b"}, skip: []string{"b2"}},
		{name: "added row", rep: rows(
			benchRow{Name: "a", NsPerOp: 100, AllocsPerOp: 2},
			benchRow{Name: "b", NsPerOp: 100},
			benchRow{Name: "c", NsPerOp: 100, AllocsPerOp: 9}),
			base: base, skip: []string{"c"}},
		{name: "allocs increase", rep: rows(
			benchRow{Name: "a", NsPerOp: 100, AllocsPerOp: 3},
			benchRow{Name: "b", NsPerOp: 100}),
			base: base, fail: []string{"a"}},
		{name: "slower, ns ungated", rep: rows(
			benchRow{Name: "a", NsPerOp: 100, AllocsPerOp: 2},
			benchRow{Name: "b", NsPerOp: 500}), base: base},
		{name: "slower within -gate-ns", rep: rows(
			benchRow{Name: "a", NsPerOp: 100, AllocsPerOp: 2},
			benchRow{Name: "b", NsPerOp: 119}), base: base, gateNs: 0.2},
		{name: "slower beyond -gate-ns", rep: rows(
			benchRow{Name: "a", NsPerOp: 100, AllocsPerOp: 2},
			benchRow{Name: "b", NsPerOp: 121}),
			base: base, gateNs: 0.2, fail: []string{"b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fail, skip []string
			for _, f := range gate(tc.rep, tc.base, tc.gateNs) {
				switch {
				case f.fail:
					fail = append(fail, f.name)
				case strings.Contains(f.msg, "skipping"):
					skip = append(skip, f.name)
				}
			}
			if !slices.Equal(fail, tc.fail) || !slices.Equal(skip, tc.skip) {
				t.Errorf("failing %q, skipped %q; want failing %q, skipped %q", fail, skip, tc.fail, tc.skip)
			}
		})
	}
}

// TestFinishGatesAgainstReadBaseline: -out naming the baseline file, as in
// `bench -quick -baseline BENCH_parallel.json`, overwrites it, and the gate
// still compares against the committed copy read before the run.
func TestFinishGatesAgainstReadBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_parallel.json")
	if err := finish(io.Discard, rows(benchRow{Name: "vehicle_run", AllocsPerOp: 4185}), path, nil, 0); err != nil {
		t.Fatal(err)
	}
	base, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	err = finish(io.Discard, rows(benchRow{Name: "vehicle_run", AllocsPerOp: 4186}), path, &base, 0)
	if err == nil || !strings.Contains(err.Error(), "4185 -> 4186") {
		t.Fatalf("gate of 4186 allocs/op against a committed 4185 returned %v", err)
	}
	if rep, err := readReport(path); err != nil || rep.Benchmarks[0].AllocsPerOp != 4186 {
		t.Fatalf("-out holds %+v (%v), want the fresh report", rep, err)
	}
}

// TestReadReportRefusesOtherSchema: a baseline of another schema version
// fails before any row runs.
func TestReadReportRefusesOtherSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := report{SchemaVersion: schemaVersion - 1}
	if err := finish(io.Discard, old, path, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(path); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("readReport of a schema %d baseline returned %v", old.SchemaVersion, err)
	}
}

// TestUnknownMatrixFailsFirst: an unknown -matrix fails before the baseline
// is read and before the first row runs, also under -quick, which never
// reaches the sweep.
func TestUnknownMatrixFailsFirst(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	cmd := exec.Command(exe, "-quick", "-matrix", "1k",
		"-baseline", filepath.Join(dir, "missing.json"), "-out", out)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(string(stderr), `unknown -matrix "1k"`) {
		t.Fatalf("bench -quick -matrix 1k returned %v:\n%s", err, stderr)
	}
	if strings.Contains(string(stderr), "allocs/op") {
		t.Fatalf("a row ran before -matrix was resolved:\n%s", stderr)
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("-out was written (stat: %v)", err)
	}
}

// TestMidRunStackScrapes checks that the scrape_pair row measures two
// whole documents, not an error answer.
func TestMidRunStackScrapes(t *testing.T) {
	health, metrics, err := midRunStack(1, 150)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct {
		h    http.Handler
		want string
	}{{health, `"blame"`}, {metrics, "chainmon_blame_share_ppm{"}} {
		rec := httptest.NewRecorder()
		ep.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), ep.want) {
			t.Fatalf("scrape answered %d without %s:\n%.500s", rec.Code, ep.want, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	health.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc["budget"] == nil {
		t.Fatalf("mid-run /health is not a whole document with a budget section: %v", err)
	}
}
