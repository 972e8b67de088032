// Package sim provides a deterministic discrete-event simulation kernel and
// a fixed-priority preemptive multicore processor model. It is the substrate
// on which the middleware, executors and monitors run in virtual time.
//
// All experiments except the wall-clock Fig. 11 overheads and
// `cmd/chainmon -realtime` execute on this kernel, which makes every run
// reproducible bit-for-bit for a given seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is layout-compatible
// with time.Duration so the stdlib duration constants can be used directly.
type Duration = time.Duration

// Common time constants re-exported for convenience.
const (
	Nanosecond  Duration = time.Nanosecond
	Microsecond Duration = time.Microsecond
	Millisecond Duration = time.Millisecond
	Second      Duration = time.Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String formats the time as a duration offset from simulation start.
func (t Time) String() string {
	return fmt.Sprintf("t+%v", Duration(t))
}
