package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/diagnose"
	"ovlp/internal/profile"
	"ovlp/internal/timeres"
	"ovlp/internal/trace"
)

// The ablation ladder runs one simulated program with one more layer
// of the instrument switched on per rung — the host-side analogue of
// the paper's Fig. 20, which reports instrumentation overhead in
// virtual per cent only. A rung's metric is its host time minus that of
// the rung below it, so the rungs add up to the cost of the full
// pipeline and each names the layer that owns its share.

// rung is one configuration of the ladder.
type rung struct {
	// metric is the per-layer metric (without the program suffix) the
	// rung's added cost is reported under.
	metric string
	// base is the index of the rung this one adds a layer to.
	base int
	run  func(p program, table *calib.Table)
}

// tracedRun runs p instrumented (re-calibrating, as the rung below it
// does) under tracer tr, with a counting sink so that emission reaches
// a consumer even when nothing is retained.
func tracedRun(p program, tr *trace.Tracer) cluster.Result {
	cfg := p.instrumented(nil)
	tr.AddSink(&countSink{})
	cfg.Trace = tr
	return cluster.Run(cfg, p.body)
}

// sinkRun is tracedRun with retained rings and the live time-resolved
// analyzer attached, finalized the way the scenario engine does.
func sinkRun(p program) (*trace.Tracer, cluster.Result) {
	tr := trace.New(trace.Options{})
	an := timeres.New(timeres.Options{})
	tr.AddSink(an)
	res := tracedRun(p, tr)
	an.SetTable(res.Calib)
	an.Finalize(res.Duration)
	if err := an.Err(); err != nil {
		panic(fmt.Sprintf("bench: live timeres analyzer on %s: %v", p.name, err))
	}
	an.Snapshot()
	return tr, res
}

func ladder() []rung {
	return []rung{
		{metric: "cluster.bare_ms", base: -1, run: func(p program, _ *calib.Table) {
			cluster.Run(p.cfg, p.body)
		}},
		{metric: "overlap.monitor_ms", base: 0, run: func(p program, table *calib.Table) {
			cluster.Run(p.instrumented(table), p.body)
		}},
		{metric: "calib.percall_ms", base: 1, run: func(p program, _ *calib.Table) {
			cluster.Run(p.instrumented(nil), p.body)
		}},
		{metric: "trace.emit_ms", base: 2, run: func(p program, _ *calib.Table) {
			tracedRun(p, trace.New(trace.Options{MetricsOnly: true}))
		}},
		{metric: "trace.retain_ms", base: 3, run: func(p program, _ *calib.Table) {
			tracedRun(p, trace.New(trace.Options{}))
		}},
		{metric: "timeres.sink_ms", base: 4, run: func(p program, _ *calib.Table) {
			sinkRun(p)
		}},
		{metric: "trace.export_ms", base: 5, run: func(p program, _ *calib.Table) {
			tr, _ := sinkRun(p)
			var buf bytes.Buffer
			if err := tr.WriteChrome(&buf); err != nil {
				panic(fmt.Sprintf("bench: trace export of %s: %v", p.name, err))
			}
		}},
		// Analysis replaces export on top of the sink rung: a run is
		// either exported for later or analysed in process.
		{metric: "profile.analysis_ms", base: 5, run: func(p program, _ *calib.Table) {
			tr, res := sinkRun(p)
			in := profile.FromTracer(tr, res.Calib, res.Reports)
			prof, err := profile.Analyze(in)
			if err != nil {
				panic(fmt.Sprintf("bench: profiling %s: %v", p.name, err))
			}
			snap, err := timeres.FromInput(in, timeres.Options{})
			if err != nil {
				panic(fmt.Sprintf("bench: timeres replay of %s: %v", p.name, err))
			}
			diagnose.Analyze(diagnose.Input{Profile: prof, TimeRes: snap, Duration: prof.Duration, Procs: prof.Ranks})
		}},
	}
}

// runLadder climbs the ladder with program p until the budget is spent
// and reports each rung's added cost under <metric>.<suffix>: the
// median over sweeps of the rung's host time minus, in the same sweep,
// that of the rung it builds on. Pairing within a sweep lets slow
// drift of the host cancel, which matters because some rungs add a
// per cent or two to a run.
func runLadder(r *result, p program, suffix string, table *calib.Table, budget time.Duration) {
	rungs := ladder()
	added := make([][]float64, len(rungs))
	ms := make([]float64, len(rungs))
	sweeps := 0
	for start := time.Now(); sweeps == 0 || time.Since(start) < budget; sweeps++ {
		for i, rg := range rungs {
			// Collect first, or a rung pays for the garbage of the one
			// before it — the bare rung for a whole analysis.
			runtime.GC()
			t := time.Now()
			rg.run(p, table)
			ms[i] = float64(time.Since(t)) / 1e6
			if rg.base >= 0 {
				added[i] = append(added[i], ms[i]-ms[rg.base])
			} else {
				added[i] = append(added[i], ms[i])
			}
		}
	}
	note := fmt.Sprintf("median of %d sweeps", sweeps)
	for i, rg := range rungs {
		r.set(rg.metric+"."+suffix, median(added[i]), note)
	}
}
