package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// edgeSeeds are the seeds at the ends of math/rand's seed reduction: 0 and
// the value 0 maps to, each side of the modulus 2^31−1 and its double, and
// the ends of int64.
var edgeSeeds = []int64{
	0, 1, -1,
	lehmerMod, -lehmerMod, lehmerMod - 1, lehmerMod + 1, 2 * lehmerMod,
	math.MinInt64, math.MaxInt64, 89482311,
}

// testSeeds returns the edge seeds and n seeds spread over all of int64.
func testSeeds(n int) []int64 {
	pick := rand.New(rand.NewSource(20211))
	seeds := append([]int64(nil), edgeSeeds...)
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// draws is how far each comparison reads: twice through the 607 words, so
// every word is read once as seeded and once as rewritten.
const draws = 2 * rngLen

// TestSourceMatchesMathRand checks that an RNG draws exactly what
// rand.New(rand.NewSource(seed)) draws, through each Rand method math/rand
// builds on its source, for each edge seed and 300 seeds spread over int64.
func TestSourceMatchesMathRand(t *testing.T) {
	methods := []struct {
		name string
		draw func(r *rand.Rand, i int) any
	}{
		{"Uint64", func(r *rand.Rand, _ int) any { return r.Uint64() }},
		{"Int63", func(r *rand.Rand, _ int) any { return r.Int63() }},
		{"Float64", func(r *rand.Rand, _ int) any { return r.Float64() }},
		{"NormFloat64", func(r *rand.Rand, _ int) any { return r.NormFloat64() }},
		{"ExpFloat64", func(r *rand.Rand, _ int) any { return r.ExpFloat64() }},
		// Bounds that are powers of two, just above them, and near the top
		// of the range, where Int63n and Intn reject draws.
		{"Int63n", func(r *rand.Rand, i int) any {
			return r.Int63n([]int64{1, 2, 3, 1 << 40, 1<<40 + 1, math.MaxInt64, 1<<62 + 7}[i%7])
		}},
		{"Intn", func(r *rand.Rand, i int) any { return r.Intn([]int{1, 6, 1 << 20, 1<<30 + 3, math.MaxInt}[i%5]) }},
		{"Perm", func(r *rand.Rand, _ int) any { return r.Perm(16) }},
	}
	for _, seed := range testSeeds(300) {
		for _, m := range methods {
			g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
			n := draws
			if m.name == "Perm" {
				n /= 16 // each Perm(16) draws 16 values
			}
			for i := 0; i <= n; i++ {
				got, want := m.draw(&g.r, i), m.draw(ref, i)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s draw %d: got %v, math/rand %v", seed, m.name, i, got, want)
				}
			}
		}
	}
}

// refRNG is NewRNG and Derive as they were built on rand.NewSource, the
// reference the derived streams must keep matching.
type refRNG struct{ r *rand.Rand }

func newRefRNG(seed int64) *refRNG { return &refRNG{rand.New(rand.NewSource(seed))} }

func (g *refRNG) derive(label string) *refRNG {
	h := int64(1469598103934665603)
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	return newRefRNG(h ^ g.r.Int63())
}

// TestDeriveMatchesMathRand builds a Derive tree the way a vehicle does
// (processors, links, clocks, monitors below a scenario root) on NewRNG and
// on the rand.NewSource reference, drawing from every node between derives,
// and checks that every node's stream is the reference's.
func TestDeriveMatchesMathRand(t *testing.T) {
	labels := []string{"perception", "proc/ecu1", "proc/ecu2", "link/front", "link/rear",
		"clock/ecu1", "clock/ecu2", "dds", "localmon", "remotemon/objects", "faultinject", "scene"}
	type node struct {
		g   *RNG
		ref *refRNG
	}
	for _, seed := range testSeeds(20) {
		level := []node{{NewRNG(seed), newRefRNG(seed)}}
		all := level
		for depth := 0; depth < 3; depth++ {
			var next []node
			for pi, p := range level {
				for li := pi % 3; li < len(labels); li += 3 + depth {
					label := labels[li]
					c := node{p.g.Derive(label), p.ref.derive(label)}
					for i := 0; i < 2*li+1; i++ {
						if got, want := c.g.Normal(5, 2), 5+2*c.ref.r.NormFloat64(); got != want {
							t.Fatalf("seed %d, depth %d, %q draw %d: got %v, reference %v", seed, depth, label, i, got, want)
						}
					}
					next = append(next, c)
				}
			}
			level = next
			all = append(all, next...)
		}
		for _, n := range all {
			for i := 0; i < draws; i++ {
				if got, want := n.g.Intn(1000), n.ref.r.Intn(1000); got != want {
					t.Fatalf("seed %d, node draw %d: got %d, reference %d", seed, i, got, want)
				}
			}
		}
	}
}

// TestDeriveAllocs pins NewRNG and Derive at one allocation each: the RNG
// holds its source and the rand.Rand that reads it.
func TestDeriveAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { NewRNG(42) }); a != 1 {
		t.Errorf("NewRNG allocates %v objects, want 1", a)
	}
	g := NewRNG(42)
	if a := testing.AllocsPerRun(100, func() { g.Derive("proc/ecu1") }); a != 1 {
		t.Errorf("Derive allocates %v objects, want 1", a)
	}
}

// TestMulMod checks the Mersenne reduction against % at the ends of its
// range, where a single fold would leave the product at or above 2^31−1.
func TestMulMod(t *testing.T) {
	vals := []uint64{1, 2, 3, lehmerMul, 1 << 16, 1<<30 - 1, 1 << 30, 1<<30 + 1, lehmerMod - 2, lehmerMod - 1}
	for _, x := range vals {
		for _, p := range vals {
			if got, want := mulMod(x, p), x*p%lehmerMod; got != want {
				t.Errorf("mulMod(%d, %d) = %d, want %d", x, p, got, want)
			}
		}
	}
}

// FuzzSourceMatchesMathRand checks, for any seed, that the source's first
// 2×607 draws through Uint64 and then Int63 equal math/rand's.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var s source
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < draws; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d, Uint64 draw %d: got %d, math/rand %d", seed, i, got, want)
			}
		}
		for i := 0; i < draws; i++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d, Int63 draw %d: got %d, math/rand %d", seed, i, got, want)
			}
		}
	})
}
