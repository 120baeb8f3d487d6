// Package hostcount reads the host process's allocation and goroutine
// counters for tests that assert exact values of them.
//
// Both counters belong to the whole process, not to the code under
// test: a collection, another test's goroutine or the race detector's
// bookkeeping can move them during a measurement. The helpers here
// measure so that such noise cannot fail an assertion while a real
// cost still does. An allocation count is the fewest of Attempts
// measurements — a loop that really allocates does so in every
// attempt. A goroutine count is re-read until it settles, within a
// deadline — a goroutine that really leaks never goes away.
package hostcount

import (
	"runtime"
	"time"
)

// Attempts is how many times Mallocs measures.
const Attempts = 3

// Mallocs calls f Attempts times and returns the fewest heap
// allocations one call made. GOMAXPROCS is 1 while it measures, as in
// testing.AllocsPerRun. A peer that must mirror f's work (the other
// rank of a round trip) runs it Attempts times too.
func Mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < Attempts; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// settleWithin bounds how long Goroutines waits for the count to
// settle.
const settleWithin = 2 * time.Second

// Goroutines returns runtime.NumGoroutine once it reads want, or the
// count it reads when the deadline passes. Goroutines that are ending
// (a finished coroutine, another test's helper) leave within it.
func Goroutines(want int) int {
	deadline := time.Now().Add(settleWithin)
	for {
		n := runtime.NumGoroutine()
		if n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// Base returns the goroutine count a test starts from, once it has
// stopped changing: the same on reads 5 ms apart, within the deadline.
func Base() int {
	deadline := time.Now().Add(settleWithin)
	n := runtime.NumGoroutine()
	for {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n || time.Now().After(deadline) {
			return m
		}
		n = m
	}
}
