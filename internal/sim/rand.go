package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG is a deterministic random source for a simulation component. Each
// component derives its own RNG from the scenario seed so that adding a
// component does not perturb the random streams of the others.
//
// Its streams are math/rand v1's: an RNG seeded with s draws what
// rand.New(rand.NewSource(s)) draws, through math/rand's own Rand methods.
// Like math/rand it reduces a seed mod 2^31−1, so there are 2^31−2
// streams, and seeds congruent mod 2^31−1 (and 0 and 89482311) share one.
type RNG struct {
	r   rand.Rand // reads src
	src source
}

// NewRNG returns an RNG seeded with seed: the stream of
// rand.New(rand.NewSource(seed)), set up in one allocation.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.src.Seed(seed)
	g.r = *rand.New(&g.src)
	return g
}

// Derive returns a new RNG whose seed is a deterministic function of the
// given label and this RNG's next Int63, in one allocation. The derived seed
// is reduced mod 2^31−1 like any other, so derived RNGs are independent only
// within that seed space: two of them share a stream when their seeds
// collide there, which for n derived RNGs happens with a probability of
// about n²/2^32.
func (g *RNG) Derive(label string) *RNG {
	h := int64(1469598103934665603) // FNV-1a offset basis (truncated)
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	return NewRNG(h ^ g.r.Int63())
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform sample in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a normal sample with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Dist is a distribution of durations, used for execution times, network
// response times and kernel overheads.
type Dist interface {
	// Sample draws one duration. Implementations must never return a
	// negative duration.
	Sample(g *RNG) Duration
	// Bounds returns best-case and a practical worst-case duration
	// (the support for truncated distributions, a high quantile otherwise).
	Bounds() (lo, hi Duration)
	fmt.Stringer
}

// Constant is a degenerate distribution.
type Constant Duration

// Sample implements Dist.
func (c Constant) Sample(*RNG) Duration { return Duration(c) }

// Bounds implements Dist.
func (c Constant) Bounds() (Duration, Duration) { return Duration(c), Duration(c) }

func (c Constant) String() string { return fmt.Sprintf("const(%v)", Duration(c)) }

// UniformDist samples uniformly in [Lo,Hi].
type UniformDist struct {
	Lo, Hi Duration
}

// Sample implements Dist.
func (u UniformDist) Sample(g *RNG) Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + Duration(g.r.Int63n(int64(u.Hi-u.Lo)+1))
}

// Bounds implements Dist.
func (u UniformDist) Bounds() (Duration, Duration) { return u.Lo, u.Hi }

func (u UniformDist) String() string { return fmt.Sprintf("uniform(%v,%v)", u.Lo, u.Hi) }

// NormalDist is a normal distribution truncated to [Min,Max].
type NormalDist struct {
	Mean, Stddev Duration
	Min, Max     Duration
}

// Sample implements Dist.
func (n NormalDist) Sample(g *RNG) Duration {
	for i := 0; i < 64; i++ {
		v := Duration(g.Normal(float64(n.Mean), float64(n.Stddev)))
		if v >= n.Min && (n.Max == 0 || v <= n.Max) {
			return v
		}
	}
	return clampDur(n.Mean, n.Min, n.Max)
}

// Bounds implements Dist.
func (n NormalDist) Bounds() (Duration, Duration) {
	hi := n.Max
	if hi == 0 {
		hi = n.Mean + 4*n.Stddev
	}
	return n.Min, hi
}

func (n NormalDist) String() string {
	return fmt.Sprintf("normal(μ=%v,σ=%v,[%v,%v])", n.Mean, n.Stddev, n.Min, n.Max)
}

// LogNormalDist produces heavy-tailed positive samples: exp(N(Mu,Sigma)),
// scaled so the median is Median, shifted by Shift and truncated to Max
// (0 = no truncation). It models data-dependent compute times and network
// response-time tails.
type LogNormalDist struct {
	Median Duration // median of the multiplicative part
	Sigma  float64  // log-space standard deviation
	Shift  Duration // additive best-case offset
	Max    Duration // optional truncation; 0 disables
}

// Sample implements Dist.
func (l LogNormalDist) Sample(g *RNG) Duration {
	v := Duration(float64(l.Median)*math.Exp(l.Sigma*g.r.NormFloat64())) + l.Shift
	if v < l.Shift {
		v = l.Shift
	}
	if l.Max > 0 && v > l.Max {
		v = l.Max
	}
	return v
}

// Bounds implements Dist.
func (l LogNormalDist) Bounds() (Duration, Duration) {
	hi := l.Max
	if hi == 0 {
		// ~99.97 percentile in log space.
		hi = Duration(float64(l.Median)*math.Exp(3.4*l.Sigma)) + l.Shift
	}
	return l.Shift, hi
}

func (l LogNormalDist) String() string {
	return fmt.Sprintf("lognormal(med=%v,σ=%.2f,+%v,max=%v)", l.Median, l.Sigma, l.Shift, l.Max)
}

// MixtureDist samples from Base, but with probability TailProb from Tail.
// It models rare outliers (e.g. scheduling interference spikes).
type MixtureDist struct {
	Base     Dist
	Tail     Dist
	TailProb float64
}

// Sample implements Dist.
func (m MixtureDist) Sample(g *RNG) Duration {
	if g.Bool(m.TailProb) {
		return m.Tail.Sample(g)
	}
	return m.Base.Sample(g)
}

// Bounds implements Dist.
func (m MixtureDist) Bounds() (Duration, Duration) {
	blo, bhi := m.Base.Bounds()
	tlo, thi := m.Tail.Bounds()
	return minDur(blo, tlo), maxDur(bhi, thi)
}

func (m MixtureDist) String() string {
	return fmt.Sprintf("mix(%v | %.3f→%v)", m.Base, m.TailProb, m.Tail)
}

// ScaledDist multiplies another distribution's samples by Factor.
type ScaledDist struct {
	Base   Dist
	Factor float64
}

// Sample implements Dist.
func (s ScaledDist) Sample(g *RNG) Duration {
	return Duration(float64(s.Base.Sample(g)) * s.Factor)
}

// Bounds implements Dist.
func (s ScaledDist) Bounds() (Duration, Duration) {
	lo, hi := s.Base.Bounds()
	return Duration(float64(lo) * s.Factor), Duration(float64(hi) * s.Factor)
}

func (s ScaledDist) String() string { return fmt.Sprintf("%.2f*%v", s.Factor, s.Base) }

func clampDur(v, lo, hi Duration) Duration {
	if v < lo {
		return lo
	}
	if hi > 0 && v > hi {
		return hi
	}
	return v
}

func minDur(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

func maxDur(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// BoundedWalk is a random walk clamped to [-Bound,+Bound], used to model a
// slowly drifting clock offset under PTP correction.
type BoundedWalk struct {
	Bound Duration
	Step  Duration
	cur   Duration
}

// Next advances the walk and returns the new value.
func (w *BoundedWalk) Next(g *RNG) Duration {
	delta := Duration(g.Uniform(-float64(w.Step), float64(w.Step)))
	w.cur += delta
	if w.cur > w.Bound {
		w.cur = w.Bound
	}
	if w.cur < -w.Bound {
		w.cur = -w.Bound
	}
	return w.cur
}

// Value returns the current value without advancing.
func (w *BoundedWalk) Value() Duration { return w.cur }
