package monitor

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// Operations of FuzzActivationWindow: each takes three bytes. The first is
// the kind plus three times the mode, which places the activation relative
// to the window's highest mark; the next two are a big-endian distance, so
// the corpus can reach the window's edges exactly.
const (
	winAdd = iota
	winHas
	winDel
)

const (
	modeAhead  = iota // highest mark + d
	modeBehind        // highest mark − d
	modeTop           // math.MaxUint64 − d
	modeAbs           // d
)

func winOp(kind, mode int, d uint16) []byte {
	return []byte{byte(kind + 3*mode), byte(d >> 8), byte(d)}
}

// FuzzActivationWindow checks actWindow against a map that keeps only the
// activations no older than the highest mark minus windowSize−1: every read
// must agree, and the window must hold exactly the map's entries.
func FuzzActivationWindow(f *testing.F) {
	f.Add(slices.Concat(
		winOp(winAdd, modeAbs, 0), winOp(winHas, modeAbs, 0),
		winOp(winAdd, modeAhead, 1), winOp(winHas, modeBehind, 1),
		winOp(winHas, modeAhead, 1), winOp(winDel, modeBehind, 1),
		winOp(winHas, modeBehind, 1), winOp(winHas, modeBehind, 0),
	))
	// Forward jumps of 1, 4095, 4096 and 4097, each followed by reads at and
	// just past the far edge of the window.
	jumps := [][]byte{winOp(winAdd, modeAbs, 7000)}
	for _, d := range []uint16{1, 4095, 4096, 4097} {
		jumps = append(jumps,
			winOp(winAdd, modeAhead, d),
			winOp(winHas, modeBehind, d), winOp(winHas, modeBehind, 4095),
			winOp(winHas, modeBehind, 4096), winOp(winAdd, modeBehind, 4095),
			winOp(winAdd, modeBehind, 4096), winOp(winHas, modeBehind, 4095))
	}
	f.Add(slices.Concat(jumps...))
	// Marks near the top of the activation space.
	f.Add(slices.Concat(
		winOp(winAdd, modeTop, 4097), winOp(winAdd, modeTop, 1),
		winOp(winHas, modeTop, 4097), winOp(winHas, modeTop, 4096),
		winOp(winAdd, modeTop, 0), winOp(winHas, modeTop, 1),
		winOp(winHas, modeTop, 4095), winOp(winAdd, modeTop, 4096),
		winOp(winHas, modeTop, 4096), winOp(winDel, modeTop, 0),
		winOp(winHas, modeTop, 0), winOp(winHas, modeAbs, 0),
	))
	// A jump that clears whole words must clear each word's every bit: 63
	// shares act 4159's slot, which the jump to 4170 passes.
	f.Add(slices.Concat(
		winOp(winAdd, modeAbs, 63), winOp(winAdd, modeAbs, 100),
		winOp(winAdd, modeAbs, 4170), winOp(winHas, modeAbs, 4159),
	))
	// Reads and marks behind the window, then a jump that leaves them behind.
	f.Add(slices.Concat(
		winOp(winAdd, modeAbs, 10), winOp(winAdd, modeAbs, 9000),
		winOp(winHas, modeAbs, 10), winOp(winAdd, modeAbs, 10),
		winOp(winHas, modeAbs, 10), winOp(winAdd, modeBehind, 100),
		winOp(winAdd, modeAhead, 4000), winOp(winHas, modeBehind, 4100),
		winOp(winHas, modeBehind, 4000), winOp(winAdd, modeAhead, 97),
		winOp(winHas, modeBehind, 4097),
	))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var w actWindow
		var hi uint64
		model := map[uint64]bool{}
		for len(ops) >= 3 {
			kind, mode := int(ops[0])%3, int(ops[0])/3%4
			d := uint64(ops[1])<<8 | uint64(ops[2])
			ops = ops[3:]
			var act uint64
			switch mode {
			case modeAhead:
				act = hi + d
			case modeBehind:
				act = hi - d
			case modeTop:
				act = math.MaxUint64 - d
			default:
				act = d
			}
			switch kind {
			case winAdd:
				w.add(act)
				if act > hi {
					hi = act
					for a := range model {
						if hi-a >= windowSize {
							delete(model, a)
						}
					}
				}
				if hi-act < windowSize {
					model[act] = true
				}
			case winHas:
				if got := w.has(act); got != model[act] {
					t.Fatalf("has(%d) = %v with highest mark %d, want %v", act, got, hi, model[act])
				}
			case winDel:
				w.del(act)
				delete(model, act)
			}
			n := 0
			for _, word := range w.bits {
				n += bits.OnesCount64(word)
			}
			for a := range model {
				if !w.has(a) {
					t.Fatalf("has(%d) = false after op on %d (highest mark %d), want true", a, act, hi)
				}
			}
			if n != len(model) {
				t.Fatalf("window holds %d marks after op on %d (highest mark %d), want %d", n, act, hi, len(model))
			}
		}
	})
}
