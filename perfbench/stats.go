package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile: a p99 needs at least a thousand samples, a median twenty.
const minBeyond = 10

// dist is a sorted sample of one measured quantity.
type dist struct {
	name   string
	sorted []float64
}

// newDist sorts a copy of vs.
func newDist(name string, vs []float64) dist {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return dist{name: name, sorted: s}
}

// n is the sample count.
func (d dist) n() int { return len(d.sorted) }

// pct returns the nearest-rank q-quantile and refuses it when fewer than
// minBeyond samples lie beyond it.
func (d dist) pct(q float64) (float64, error) {
	n := len(d.sorted)
	if n == 0 {
		return 0, fmt.Errorf("%s: no samples", d.name)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("%s: p%g of %d samples has only %d beyond it (need %d)",
			d.name, 100*q, n, beyond, minBeyond)
	}
	return d.sorted[idx], nil
}

// median is the middle value of a small set of per-repetition results (no
// tail rule applies: it summarizes repetitions, not a latency population).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// marginals turns a ladder of cumulative per-rung costs into the cost each
// rung adds over the previous one. The first rung is its own marginal.
func marginals(cum []float64) []float64 {
	out := make([]float64, len(cum))
	for i, v := range cum {
		if i == 0 {
			out[i] = v
			continue
		}
		out[i] = v - cum[i-1]
	}
	return out
}
