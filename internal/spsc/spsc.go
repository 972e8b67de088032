// Package spsc is the wait-free single-producer/single-consumer ring the
// monitor's transports share: the paper's shared-memory event rings between
// instrumented middleware and the monitor thread (walltime.Ring) and the
// per-track staging rings of the background trace writer (telemetry). It
// imports no other package of this module, so both can use it.
package spsc

import (
	"fmt"
	"sync/atomic"
)

type slot[T any] struct {
	_   [0]atomic.Uint64 // aligns seq to 64 bits on 32-bit platforms
	seq uint64
	v   T
}

// Ring is a wait-free single-producer/single-consumer ring buffer. The zero
// value is not usable; create rings with New.
//
// The implementation uses per-slot sequence numbers (à la Vyukov) so that
// the producer never waits for the consumer: slot i's seq is pos before the
// write and pos+1 after, so producer and consumer synchronize on the slot
// itself. Post returns false when the ring is full, which the caller must
// treat as an overload (a dropped event).
//
// The sequence numbers and positions are plain uint64s accessed with the
// sync/atomic functions, which compile to single instructions in every
// package that instantiates the ring. The atomic.Uint64 methods would have
// to be inlined there, and the compiler does not inline them into an
// instantiation made in a package that does not import sync/atomic.
type Ring[T any] struct {
	// New allocates the ring, so its first word is 64-bit aligned and so
	// are head and tail behind whole uint64 paddings.
	_    [8]uint64 // keep hot fields off the same cache line as callers
	head uint64
	_    [7]uint64
	tail uint64
	_    [7]uint64
	mask uint64
	buf  []slot[T]
}

// New creates a ring with the given capacity, which must be a power of two.
func New[T any](capacity int) *Ring[T] {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("spsc: capacity %d is not a power of two", capacity))
	}
	r := &Ring[T]{mask: uint64(capacity - 1), buf: make([]slot[T], capacity)}
	for i := range r.buf {
		atomic.StoreUint64(&r.buf[i].seq, uint64(i))
	}
	return r
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Post appends v. It must be called by a single producer. It returns false
// when the ring is full (v is dropped).
func (r *Ring[T]) Post(v T) bool {
	tail := atomic.LoadUint64(&r.tail)
	s := &r.buf[tail&r.mask]
	if atomic.LoadUint64(&s.seq) != tail {
		return false // slot not yet consumed: ring full
	}
	s.v = v
	atomic.StoreUint64(&s.seq, tail+1) // release: publish the value
	atomic.StoreUint64(&r.tail, tail+1)
	return true
}

// Pop removes the oldest value. It must be called by a single consumer.
func (r *Ring[T]) Pop() (T, bool) {
	head := atomic.LoadUint64(&r.head)
	s := &r.buf[head&r.mask]
	if atomic.LoadUint64(&s.seq) != head+1 {
		var zero T
		return zero, false // empty
	}
	v := s.v
	atomic.StoreUint64(&s.seq, head+uint64(len(r.buf))) // mark consumed for the producer
	atomic.StoreUint64(&r.head, head+1)
	return v, true
}

// PopBatch removes up to len(buf) oldest values into buf, in posting order,
// and returns the count: the same values, in the same order, as calling Pop
// len(buf) times. It must be called by a single consumer. Each slot is
// marked consumed as it is copied out (the producer reuses slots as soon as
// their seq advances); head is published once at the end, which the single
// consumer never observes mid-batch.
func (r *Ring[T]) PopBatch(buf []T) int {
	head := atomic.LoadUint64(&r.head)
	n := 0
	for n < len(buf) {
		s := &r.buf[(head+uint64(n))&r.mask]
		if atomic.LoadUint64(&s.seq) != head+uint64(n)+1 {
			break // empty
		}
		buf[n] = s.v
		atomic.StoreUint64(&s.seq, head+uint64(n)+uint64(len(r.buf)))
		n++
	}
	if n > 0 {
		atomic.StoreUint64(&r.head, head+uint64(n))
	}
	return n
}

// Len returns the approximate number of buffered values (exact when called
// from either the producer or the consumer).
func (r *Ring[T]) Len() int {
	return int(atomic.LoadUint64(&r.tail) - atomic.LoadUint64(&r.head))
}
