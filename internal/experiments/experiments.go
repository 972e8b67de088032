// Package experiments regenerates every figure of the paper's evaluation
// (and the measurable claims of its concept sections) on the simulated
// system and, for the wall-clock overheads of Fig. 11, on the wall-clock
// local monitor (monitor.NewWallclockMonitor). The package is shared by the
// repository's benchmarks (bench_test.go) and cmd/experiments.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"chainmon/internal/sim"
	"chainmon/internal/stats"
)

// section prints a figure header.
func section(w io.Writer, title, explain string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	if explain != "" {
		fmt.Fprintf(w, "%s\n", explain)
	}
	fmt.Fprintln(w)
}

// row prints one Tukey boxplot row.
func row(w io.Writer, label string, s *stats.Sample) {
	fmt.Fprintln(w, s.Tukey().DurationRow(label))
}

// durationsOf converts sim latencies in a sample to a printable quantile
// triple for compact assertions.
func quantiles(s *stats.Sample) (med, p95, max sim.Duration) {
	return sim.Duration(s.Median()), sim.Duration(s.Quantile(0.95)), sim.Duration(s.Max())
}
