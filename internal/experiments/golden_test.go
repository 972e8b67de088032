package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestFig9DumpGolden pins the exact CSV dump of a small Fig. 9/10 run.
// The experiment runs entirely in virtual time, so the dump is
// bit-for-bit deterministic for a fixed (frames, seed); any drift in the
// simulator, the monitor stack, or the CSV format shows up as a diff
// here. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestFig9DumpGolden -update
func TestFig9DumpGolden(t *testing.T) {
	dir := t.TempDir()
	if err := DumpCSV(dir, RunFig9(30, 3, 1).Samples()); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("== " + name + " ==\n")
		b.Write(data)
	}
	checkGolden(t, "fig9_dump.golden", b.String())
}

// checkGolden compares got with testdata/name, which -update rewrites.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
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
		t.Errorf("output drifted from %s (%d vs %d bytes);\n"+
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
