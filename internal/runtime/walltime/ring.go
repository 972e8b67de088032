package walltime

import (
	rt "chainmon/internal/runtime"
	"chainmon/internal/spsc"
)

// Ring is the wait-free single-producer/single-consumer event ring — the
// paper's shared-memory transport between the instrumented middleware and
// the monitor thread. Post returns false when the ring is full, which the
// caller must treat as a monitoring overload fault.
//
// In the paper, the rings live in POSIX shared memory between processes;
// here producer and consumer are goroutines in one address space, which
// exercises the same algorithm with the same memory ordering concerns.
type Ring = spsc.Ring[rt.Event]

// NewRing creates a ring with the given capacity, which must be a power of
// two. The ring is an rt.EventRing.
func NewRing(capacity int) *Ring { return spsc.New[rt.Event](capacity) }
