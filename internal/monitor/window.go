package monitor

// windowSize is the verdict bookkeeping's horizon in activations: an
// activation this far behind the newest one marked can no longer receive
// events, so a mark no late event consumed by then never will be.
const windowSize = 4096

// actWindow is a set of activations over a fixed window: the windowSize
// activations up to the highest one marked, one bit each. Moving the window
// forward clears the slots it passes, so an activation older than the window
// reads as unmarked and marking it does nothing; one above the highest mark
// reads as unmarked too. Its size is fixed however long the monitor runs.
type actWindow struct {
	bits [windowSize / 64]uint64
	hi   uint64 // the highest activation marked (0 before the first mark)
}

// in reports whether act lies inside the window.
func (w *actWindow) in(act uint64) bool { return act <= w.hi && w.hi-act < windowSize }

// windowSlot returns the word index and bit of act's slot.
func windowSlot(act uint64) (int, uint64) {
	return int(act / 64 % (windowSize / 64)), 1 << (act % 64)
}

func (w *actWindow) has(act uint64) bool {
	i, bit := windowSlot(act)
	return w.in(act) && w.bits[i]&bit != 0
}

func (w *actWindow) add(act uint64) {
	if act > w.hi {
		w.advance(act)
	} else if !w.in(act) {
		return
	}
	i, bit := windowSlot(act)
	w.bits[i] |= bit
}

func (w *actWindow) del(act uint64) {
	if w.in(act) {
		i, bit := windowSlot(act)
		w.bits[i] &^= bit
	}
}

// advance moves the top of the window to act > w.hi, clearing the slots of
// the activations it passes a word at a time, so a jump costs the monitor
// thread at most windowSize/64 writes.
func (w *actWindow) advance(act uint64) {
	n := act - w.hi
	if n >= windowSize {
		w.bits = [windowSize / 64]uint64{}
	} else {
		for a := w.hi + 1; n > 0; {
			off := a % 64
			k := min(64-off, n)
			i, _ := windowSlot(a)
			w.bits[i] &^= (^uint64(0) >> (64 - k)) << off
			a += k
			n -= k
		}
	}
	w.hi = act
}
