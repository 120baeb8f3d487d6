package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

const (
	// A run sets its workload up at least minSetupReps times, and again
	// until the set-ups have taken setupBudget together or maxSetupReps
	// is reached, so that a set-up of a few tens of milliseconds is not
	// judged on three samples. setup_s is the median; the last instance
	// is the one measured.
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = time.Second
	// warmupOps run before the timed window so lazy initialisation and
	// heap growth are paid before timing starts.
	warmupOps = 3
)

// window is what one timed stretch of operations observed.
type window struct {
	ops      int
	failed   int
	firstErr error
	checks   int
	opNS     []int64 // per-operation host time, in run order
	opEvents []int64 // per-operation exact event count, in run order
	mallocs  uint64
	bytes    uint64
}

// addPass runs the cycle() operations starting at index first and
// adds what they observed to w.
func (w *window) addPass(inst instance, first int, tr *spanRec) {
	for i := first; i < first+inst.cycle(); i++ {
		t := time.Now()
		root := tr.beginOp("op", i)
		checks, err := inst.op(i, tr)
		tr.end(root)
		w.opNS = append(w.opNS, int64(time.Since(t)))
		w.opEvents = append(w.opEvents, inst.events(i))
		w.ops++
		w.checks += checks
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		}
	}
}

// runOps runs whole passes, from operation index first on, for at
// least the given time and at least once — stopping only on a pass
// boundary, so that every window holds the same mix of configurations.
func runOps(inst instance, first int, seconds float64, tr *spanRec) window {
	var w window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := first; w.ops == 0 || time.Since(start).Seconds() < seconds; i += inst.cycle() {
		w.addPass(inst, i, tr)
	}
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.bytes = after.TotalAlloc - before.TotalAlloc
	return w
}

// sliceLen is the least length of the slices a window is cut into for
// its rates.
const sliceLen = time.Second

// rates cuts the window into consecutive slices of whole passes, each
// at least sliceLen long, and returns the median over slices of
// operations per second and events per second. The shared host stalls
// for a second now and then; the median slice is what the machine does
// when it is not stalled, where total operations over total time would
// charge the stall to the simulator. Within a slice nothing is
// discarded: slow operations and collector pauses count.
func (w *window) rates(cycle int) (opsPerS, eventsPerS float64, slices int) {
	var ops, events []float64
	var n, ev, ns int64
	cut := func() {
		ops = append(ops, float64(n)/(float64(ns)/1e9))
		events = append(events, float64(ev)/(float64(ns)/1e9))
		n, ev, ns = 0, 0, 0
	}
	for i := range w.opNS {
		n++
		ev += w.opEvents[i]
		ns += w.opNS[i]
		if int(n)%cycle == 0 && ns >= int64(sliceLen) {
			cut()
		}
	}
	if len(ops) == 0 { // a window shorter than one slice is one slice
		cut()
	}
	return median(ops), median(events), len(ops)
}

// setUp sets the workload up repeatedly and returns the last instance
// with every set-up time.
func setUp(wl workload, e *env) (instance, []float64, error) {
	var inst instance
	var times []float64
	var total time.Duration
	for len(times) < minSetupReps || (total < setupBudget && len(times) < maxSetupReps) {
		inst = nil
		runtime.GC()
		t := time.Now()
		var err error
		if inst, err = wl.setup(e); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		d := time.Since(t)
		total += d
		times = append(times, d.Seconds())
	}
	return inst, times, nil
}

// warmUp runs the untimed operations and returns the index of the
// first timed one. It covers at least one whole pass.
func warmUp(inst instance) (next int, err error) {
	n := warmupOps
	if c := inst.cycle(); n < c {
		n = c
	}
	for i := 0; i < n; i++ {
		if _, err := inst.op(i, nil); err != nil {
			return 0, fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	runtime.GC()
	return n, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile picks the highest of the customary percentiles that
// still has at least ten samples beyond it, and returns it with its
// value. Below forty samples none above the median qualifies, and the
// median is what is reported.
func tailPercentile(v []int64) (pct float64, value int64) {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	pct, beyond := 50.0, n/2
	for _, c := range []struct {
		pct      float64
		perMille int // share of the samples beyond the percentile
	}{{75, 250}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}} {
		if b := n * c.perMille / 1000; b >= 10 {
			pct, beyond = c.pct, b
		}
	}
	return pct, s[n-1-beyond]
}
