package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/fabric"
	"ovlp/internal/progress"
)

// heapSampler polls the live-heap size every 10ms from its own
// goroutine and keeps the maximum. It runs in the traced run only, so
// it never perturbs a gated number.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler, waits for it, and returns the peak.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}

// ladderCollReps shortens coll_sweep's ring/thread program for the
// ladder: its export rung alone costs over a second at full length,
// and the ladder reports shares of a run, which do not depend on how
// many identical collectives the run repeats.
const ladderCollReps = 10

// runTraced measures every per-layer metric: the workload once more
// with a span around each call into a layer (against as many untraced
// passes, for the tracing overhead), then the ablation ladder on both
// simulated programs, then the layer probes. --seconds is split so
// that both ladders get about eight sweeps: a third for the workload
// passes, a quarter for ladder .lu, the rest for ladder .coll, whose
// sweep is longer; each probe loops for a hundredth of it. Set-up
// runs once: setup_s belongs to the untraced run.
func runTraced(wl workload, e *env, seconds float64, man *manifest) (*result, []span, error) {
	r := newResult(wl.name, e, seconds, true, man)
	inst, err := wl.setup(e)
	if err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	next, err := warmUp(inst)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	// Untraced and traced passes alternate, so that drift of the host
	// lands on both alike and their ratio is the recorder's cost.
	var plain, traced window
	rec := newSpanRec()
	heap := startHeapSampler()
	for start := time.Now(); plain.ops == 0 || time.Since(start).Seconds() < seconds/3; next += inst.cycle() {
		plain.addPass(inst, next, nil)
		traced.addPass(inst, next, rec)
	}
	r.set("cluster.heap_peak_mb", heap.peakMB(), "sampled every 10ms over the workload window")
	r.addWindow(plain)
	r.addWindow(traced)
	r.SpanSelfMS = map[string]float64{}
	for name, ns := range sumByName(rec.spans, selfTimes(rec.spans)) {
		r.SpanSelfMS[name] = float64(ns) / 1e6 / float64(traced.ops)
	}

	rate := func(w window) float64 { r, _, _ := w.rates(inst.cycle()); return r }
	r.set("bench.trace_overhead_pct", 100*(rate(plain)-rate(traced))/rate(plain),
		fmt.Sprintf("untraced %.4g 1/s (n=%d), traced %.4g 1/s (n=%d)", rate(plain), plain.ops, rate(traced), traced.ops))
	pct, tail := tailPercentile(traced.opNS)
	r.set("cluster.op_ms_tail", float64(tail)/1e6, fmt.Sprintf("p%g, n=%d", pct, traced.ops))
	perOp := float64(passSum(inst, inst.transfers)) / float64(inst.cycle())
	r.Exact["transfers_per_pass"] = passSum(inst, inst.transfers)
	r.set("fabric.transfers_per_op", perOp, "exact")
	inst = nil

	table := cluster.Calibrate(fabric.CostModel{}, nil, 0)
	share := func(f float64) time.Duration { return time.Duration(seconds * f * float64(time.Second)) }
	runLadder(r, luProgram(), "lu", table, share(1.0/4))
	runLadder(r, collProgram(coll.Ring, progress.Thread, ladderCollReps), "coll", table, share(5.0/12))
	if err := runProbes(r, e, share(1.0/100)); err != nil {
		return nil, nil, err
	}
	return r, rec.spans, r.complete()
}
