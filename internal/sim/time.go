// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an ordered queue of scheduled
// callbacks. Determinism is guaranteed: a run is a pure function of the
// scheduled work and the engine's seed. Ties in firing time are broken by
// scheduling order (FIFO), and all randomness flows from RNGs derived from
// the engine seed.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant on the simulation clock, in nanoseconds since the
// start of the simulation. The zero value is the simulation epoch.
type Time int64

// Convenient duration-like constants expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Seconds returns t as a floating-point number of seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts the instant to a time.Duration offset from the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the instant as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// At converts a time.Duration offset from the epoch into a Time.
func At(d time.Duration) Time { return Time(d) }

// Seconds converts a floating-point number of seconds into a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }
