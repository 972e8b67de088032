package sim

import "math/rand"

// source is math/rand v1's generator, the additive lagged Fibonacci
// generator behind rand.NewSource: 607 words of state, each draw adding the
// word 273 places back. Its draws equal rand.NewSource's for every seed.
//
// Only the seeding differs. math/rand fills the 607 words from 1,841 serial
// steps of the Lehmer generator x → 48271·x mod (2^31−1), three per word
// after 20 discarded ones, and XORs each word with a fixed table. Seed
// computes each Lehmer value directly as x0·48271^n mod (2^31−1) from a
// table of powers, so no product waits for the one before it.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lehmerMod  = 1<<31 - 1 // a Mersenne prime
	lehmerMul  = 48271
	lehmerSkip = 20 // Lehmer values math/rand discards before the first word
)

var (
	// lehmerPow[i] holds 48271^n mod (2^31−1) for the three n whose
	// Lehmer values make word i: n = lehmerSkip+3i+1, +2 and +3.
	lehmerPow [rngLen][3]uint32
	// rngCooked is the table math/rand XORs into the seeded words.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for i := 0; i < lehmerSkip; i++ {
		p = p * lehmerMul % lehmerMod
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			p = p * lehmerMul % lehmerMod
			lehmerPow[i][j] = uint32(p)
		}
	}
	rngCooked = readCooked()
}

// readCooked reads math/rand's seeding table back from math/rand. Each of a
// seeded source's first 607 draws writes one word, the value it returns, so
// those draws are the state after them; undoing the draws from the last one
// back gives the seeded state, and XORing out the Lehmer words of the seed
// leaves the table.
func readCooked() [rngLen]int64 {
	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64)
	var s source
	s.seed(seed, &[rngLen]int64{})
	lehmer := s.vec
	for i := 0; i < rngLen; i++ {
		s.Uint64() // steps tap and feed; the word it writes is replaced
		s.vec[s.feed] = int64(ref.Uint64())
	}
	// tap and feed are back where seeding left them, at the last draw's words.
	for i := 0; i < rngLen; i++ {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%rngLen, (s.feed+1)%rngLen
	}
	for i := range s.vec {
		s.vec[i] ^= lehmer[i]
	}
	return s.vec
}

// Seed implements rand.Source: the state math/rand's Seed leaves for seed.
func (s *source) Seed(seed int64) { s.seed(seed, &rngCooked) }

// seed sets the state to seed's Lehmer words XOR cooked. Like math/rand it
// reduces seed mod 2^31−1 and maps 0 to 89482311.
func (s *source) seed(seed int64, cooked *[rngLen]int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &lehmerPow[i]
		u := mulMod(x, uint64(p[0]))<<40 ^ mulMod(x, uint64(p[1]))<<20 ^ mulMod(x, uint64(p[2]))
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

// mulMod returns x·p mod (2^31−1) for x and p in [1, 2^31−1). Since
// 2^31 ≡ 1, folding the bits above 31 onto the rest keeps the residue; two
// folds bring the product below 2^31. The result is never 0 and so never
// the modulus itself: the modulus is prime and divides neither factor.
func mulMod(x, p uint64) uint64 {
	t := x * p
	t = t&lehmerMod + t>>31
	return t&lehmerMod + t>>31
}

// Uint64 implements rand.Source64, as math/rand's generator does.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
