// Package clock is the time a real-clock vtime kernel waits on: a
// Clock is read and slept on by the kernel's one event loop, nothing
// else.
//
// Two implementations exist:
//
//   - Real() — wall time with monotonic reads. Sleep uses a hybrid
//     coarse-sleep + spin tail so modelled costs in the hundreds of
//     nanoseconds land within a few microseconds of target.
//   - Stepped — a clock that moves exactly when slept on, which makes
//     the real-clock kernel reproduce the virtual one byte for byte.
//
// The Domain a Clock reports is threaded through calibration tables,
// trace exports, and overlap reports so an artifact always says which
// kind of time its numbers are denominated in.
package clock

import (
	"runtime"
	"sync"
	"time"
)

// Domain names the kind of time a clock keeps. Artifacts derived from
// a run (calibration tables, traces, reports) carry the domain so a
// virtual-time table is never silently applied to a wall-clock run or
// vice versa.
type Domain string

const (
	// Virtual is deterministic simulated time (the vtime kernel).
	Virtual Domain = "virtual"
	// RealDomain is the machine's monotonic wall clock.
	RealDomain Domain = "real"
)

// Clock is a source of time the kernel can wait on. One thread — the
// kernel's event loop — reads and sleeps on it, so an implementation
// need not be safe for concurrent use.
type Clock interface {
	// Now returns the current time; real clocks return monotonic
	// readings.
	Now() time.Time
	// Since is Now().Sub(t), using the monotonic reading when the
	// clock has one.
	Since(t time.Time) time.Duration
	// Sleep blocks the caller for d. Non-positive d returns
	// immediately.
	Sleep(d time.Duration)
	// Domain names the kind of time this clock keeps.
	Domain() Domain
}

// A real Sleep busy-waits its last stretch instead of handing it to
// time.Sleep, whose wake-up slop would swamp the sub-microsecond costs
// the fabric models (PostOverhead 250ns, PollOverhead 100ns). The
// stretch has to cover that slop, which is a property of the host —
// tens of microseconds of timer slack on an idle desktop, over a
// millisecond on a small shared VM — so it is measured, once, and held
// between a floor and a cap. Only the kernel's event loop sleeps, so a
// long tail spins one core, however many ranks the run has.
const (
	minSpin = 100 * time.Microsecond
	maxSpin = 4 * time.Millisecond
)

// spinTail is twice the worst oversleep of a few minSpin sleeps,
// measured at the first Real(): the sample is taken on an idle process,
// and a run's sleeps compete with its own collector.
var spinTail = sync.OnceValue(func() time.Duration {
	var worst time.Duration
	for i := 0; i < 8; i++ {
		start := time.Now()
		time.Sleep(minSpin)
		worst = max(worst, time.Since(start)-minSpin)
	}
	return min(max(2*worst, minSpin), maxSpin)
})

// realClock keeps wall time with monotonic readings.
type realClock struct{ spin time.Duration }

// Real returns the wall clock. All readings carry Go's monotonic
// component, so Since is immune to wall-clock steps.
func Real() Clock { return realClock{spin: spinTail()} }

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (realClock) Domain() Domain                  { return RealDomain }

// Sleep blocks for d with a precise tail: the bulk of the wait uses
// time.Sleep, the last c.spin spins on the monotonic clock. Callers
// sleeping modelled protocol costs (sub-µs) therefore get durations
// accurate to the spin granularity rather than to the scheduler's
// wake-up slop.
func (c realClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	target := time.Now().Add(d)
	if d > c.spin {
		time.Sleep(d - c.spin)
	}
	for {
		rem := time.Until(target)
		if rem <= 0 {
			return
		}
		if rem > 5*time.Microsecond {
			runtime.Gosched()
		}
	}
}

// Stepped is a clock that moves exactly when slept on, by exactly the
// time asked for. A real-clock kernel over it fires every event at its
// modelled instant, so its runs are the virtual kernel's byte for byte
// — which is why its domain is Virtual, and what tests hold the
// real-clock kernel to. The zero value is ready; use one per run.
type Stepped struct{ now time.Duration }

func (c *Stepped) Now() time.Time                  { return time.Unix(0, 0).Add(c.now) }
func (c *Stepped) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
func (c *Stepped) Domain() Domain                  { return Virtual }

func (c *Stepped) Sleep(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}
