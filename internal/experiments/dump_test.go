package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainmon/internal/stats"
)

func TestDumpCSVWritesOneFilePerSample(t *testing.T) {
	dir := t.TempDir()
	s := stats.FromFloats([]float64{3, 1, 2})
	err := DumpCSV(dir, map[string]*stats.Sample{
		"alpha": s,
		"beta":  stats.NewSample(),
		"nil":   nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "alpha.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 || lines[0] != "latency_ns" {
		t.Fatalf("alpha.csv = %q", string(data))
	}
	// Values are the sorted sample.
	if lines[1] != "1" || lines[3] != "3" {
		t.Errorf("values = %v", lines[1:])
	}
	if _, err := os.Stat(filepath.Join(dir, "beta.csv")); err != nil {
		t.Error("empty sample should still produce a file")
	}
	if _, err := os.Stat(filepath.Join(dir, "nil.csv")); err == nil {
		t.Error("nil sample should be skipped")
	}
}

func TestDumpCSVCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	if err := DumpCSV(dir, map[string]*stats.Sample{"x": stats.FromFloats([]float64{1})}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x.csv")); err != nil {
		t.Error("nested directory not created")
	}
}

func TestSampleAccessors(t *testing.T) {
	r := Fig9Result{
		ObjectsUnmon: stats.NewSample(), GroundUnmon: stats.NewSample(),
		ObjectsMon: stats.NewSample(), GroundMon: stats.NewSample(),
		ObjectsExc: stats.NewSample(), GroundExc: stats.NewSample(),
		ObjectsDetect: stats.NewSample(), GroundDetect: stats.NewSample(),
	}
	if len(r.Samples()) != 8 {
		t.Errorf("fig9 samples = %d", len(r.Samples()))
	}
	r11 := Fig11Result{
		StartPost: stats.NewSample(), EndPost: stats.NewSample(),
		MonLatency: stats.NewSample(), MonExec: stats.NewSample(),
		Detection: stats.NewSample(),
	}
	if len(r11.Samples()) != 5 {
		t.Errorf("fig11 samples = %d", len(r11.Samples()))
	}
	r12 := Fig12Result{Entries: map[string]*stats.Sample{"a b": stats.NewSample()}, order: []string{"a b"}}
	for name := range r12.Samples() {
		if strings.ContainsAny(name, " %/") {
			t.Errorf("unsanitized dump name %q", name)
		}
	}
}
