package experiments

import (
	"bytes"
	"testing"
)

// TestFig9ParallelDeterminism pins the sharding guarantee on the figure
// drivers: a parallel run produces reports byte-identical to the serial run
// (each shard builds its own kernel and RNG streams from the seed, and the
// merge is ordered by shard index). Fig. 11 is deliberately absent: it
// measures wall-clock overheads on the wall-clock local monitor and
// always runs serially, so the serial/parallel identity is trivial.
func TestFig9ParallelDeterminism(t *testing.T) {
	render := func(workers int) []byte {
		r := RunFig9(120, 42, workers)
		var buf bytes.Buffer
		r.Report(&buf)
		r.ReportFig10(&buf)
		return buf.Bytes()
	}
	serial := render(1)
	for _, workers := range []int{2, 4} {
		if par := render(workers); !bytes.Equal(serial, par) {
			t.Errorf("Fig9 report at %d workers differs from serial", workers)
		}
	}
}

func TestFig12ParallelDeterminism(t *testing.T) {
	render := func(workers int) []byte {
		r := RunFig12(80, 42, []float64{0, 0.9}, workers)
		var buf bytes.Buffer
		r.Report(&buf)
		return buf.Bytes()
	}
	serial := render(1)
	if par := render(4); !bytes.Equal(serial, par) {
		t.Error("Fig12 report at 4 workers differs from serial")
	}
}

func TestAblationParallelDeterminism(t *testing.T) {
	serial := RunOrderAblation(100, 5, 1)
	par := RunOrderAblation(100, 5, 4)
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("order ablation row %d: serial %+v, parallel %+v", i, serial[i], par[i])
		}
	}
}
