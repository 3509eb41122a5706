// Package sim provides the deterministic discrete-event simulation engine
// that underpins the Nemesis reproduction. All "hardware" time in the system
// (CPU costs, disk mechanics, scheduler periods) advances on the simulated
// clock, never on the wall clock, so every experiment is exactly repeatable.
//
// The engine offers two layers:
//
//   - A time-ordered event queue (Simulator.At / Simulator.After) with FIFO
//     ordering among simultaneous events.
//   - A cooperative process model (Simulator.Spawn) in which each process is
//     a coroutine (iter.Pull) on its own goroutine, but exactly one process
//     runs at any instant; control passes between the scheduler and a
//     process by direct coroutine switches. A parking process first runs
//     the event callbacks queued ahead of its next dispatch itself,
//     dispatches the next process itself when that one's wakeup comes
//     first, and resumes without a switch when the next live event is its
//     own wakeup, so a callback may run on a process's goroutine. Events
//     still run in one (time, seq) order, and exactly one goroutine runs
//     simulation code at a time.
//     This keeps application-style code (threads that block on page faults,
//     worker threads, schedulers) natural to write while preserving strict
//     determinism.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute instant on the simulated clock, in nanoseconds since
// the start of the simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds returns t expressed in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Microseconds returns t expressed in microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Duration converts t to a time.Duration measured from the simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fms", t.Milliseconds())
}
