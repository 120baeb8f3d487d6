package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/diagnose"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/profile"
	"ovlp/internal/progress"
	"ovlp/internal/regress"
	"ovlp/internal/timeres"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// The layer probes time a layer's exported functions directly, outside
// any workload, so a change inside one layer shows as that layer's
// number moving and no other. Each probe loops for at least the
// per-probe budget.

// timeLoop calls fn(n) — n iterations of the probed call — with n
// grown from n0 until one call lasts at least d, and returns that
// call's host nanoseconds and heap allocations per iteration.
func timeLoop(d time.Duration, n0 int, fn func(n int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	for n := n0; ; {
		runtime.ReadMemStats(&before)
		t := time.Now()
		fn(n)
		el := time.Since(t)
		runtime.ReadMemStats(&after)
		if el >= d || n >= 1<<30 {
			return float64(el) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
		}
		// Aim a fifth past the budget so the next call is the last.
		grow := 1.2 * float64(d) / float64(max(el, time.Microsecond))
		n = int(float64(n)*grow) + 1
	}
}

// probes is the state the probe groups share.
type probes struct {
	r      *result
	budget time.Duration
	e      *env
}

func (p *probes) ns(name string, n0 int, fn func(n int)) (allocs float64) {
	ns, allocs := timeLoop(p.budget, n0, fn)
	p.r.set(name, ns, "")
	return allocs
}

func (p *probes) ms(name string, n0 int, fn func(n int)) (allocs float64) {
	ns, allocs := timeLoop(p.budget, n0, fn)
	p.r.set(name, ns/1e6, "")
	return allocs
}

func runProbes(r *result, e *env, budget time.Duration) error {
	p := &probes{r: r, budget: budget, e: e}
	p.vtime()
	p.fabric()
	p.mpi()
	p.coll()
	p.overlap()
	if err := p.traceAndAnalysis(); err != nil {
		return err
	}
	if err := p.scenario(); err != nil {
		return err
	}
	p.regress()
	return nil
}

func (p *probes) vtime() {
	// Two procs hand control back and forth: one round trip is two
	// context switches through the scheduler.
	allocs := p.ns("vtime.handoff_ns", 200_000, func(n int) {
		sim := vtime.NewSim()
		var a, b *vtime.Proc
		a = sim.Spawn("ping", func(pr *vtime.Proc) {
			for i := 0; i < n; i++ {
				b.Unpark()
				pr.Park("ping")
			}
		})
		b = sim.Spawn("pong", func(pr *vtime.Proc) {
			for i := 0; i < n; i++ {
				pr.Park("pong")
				a.Unpark()
			}
		})
		sim.Run()
	})
	p.r.set("vtime.handoff_allocs", allocs, "per round trip")
	p.ns("vtime.compute_ns", 200_000, func(n int) {
		sim := vtime.NewSim()
		sim.Spawn("compute", func(pr *vtime.Proc) {
			for i := 0; i < n; i++ {
				pr.Compute(time.Microsecond)
			}
		})
		sim.Run()
	})
	// A self-rearming timer: the event heap path with no proc involved.
	p.ns("vtime.timer_ns", 200_000, func(n int) {
		sim := vtime.NewSim()
		left := n
		var fire func()
		fire = func() {
			if left--; left > 0 {
				sim.After(time.Microsecond, fire)
			}
		}
		sim.After(time.Microsecond, fire)
		sim.Run()
	})
	const spawned = 1024
	nsSim, _ := timeLoop(p.budget, 1, func(n int) {
		for k := 0; k < n; k++ {
			sim := vtime.NewSim()
			for i := 0; i < spawned; i++ {
				sim.Spawn("p", func(*vtime.Proc) {})
			}
			sim.Run()
		}
	})
	p.r.set("vtime.spawn_ns", nsSim/spawned, "per proc, 1024 procs that return")
	// The second scheduler (real.go): how much slower than modelled
	// time a real-clock run of a small exchange is. Informational.
	exchange := func(backend cluster.Backend) time.Duration {
		return cluster.Run(cluster.Config{Procs: 2, Backend: backend}, func(r *mpi.Rank) {
			peer := 1 - r.ID()
			for i := 0; i < 50; i++ {
				var q *mpi.Request
				if r.ID() == 0 {
					q = r.Isend(peer, 0, 64<<10)
				} else {
					q = r.Irecv(peer, 0)
				}
				r.Compute(200 * time.Microsecond)
				r.Wait(q)
			}
		}).Duration
	}
	p.r.set("vtime.real_slowdown", float64(exchange(cluster.BackendReal))/float64(exchange(cluster.BackendVirtual)), "real wall / virtual duration")
}

func (p *probes) fabric() {
	// Post one RDMA write, park until the NIC notifies, poll the
	// completion: the shape of cluster's calibration loop.
	postComplete := func(size int) func(n int) {
		return func(n int) {
			sim := vtime.NewSim()
			fab := fabric.New(sim, 2, fabric.DefaultCostModel())
			nic := fab.NIC(0)
			poster := sim.Spawn("post", func(pr *vtime.Proc) {
				for i := 0; i < n; i++ {
					nic.RDMAWrite(pr, 1, size, 0, nil)
					for !nic.Pending() || nic.PollCQ(pr) == nil {
						pr.Park("cq")
					}
				}
			})
			nic.SetNotify(poster.Unpark)
			sim.Run()
		}
	}
	allocs := p.ns("fabric.post_complete_ns.8B", 50_000, postComplete(8))
	p.r.set("fabric.post_complete_allocs", allocs, "per 8 B write")
	p.ns("fabric.post_complete_ns.1MiB", 50_000, postComplete(1<<20))
}

func (p *probes) mpi() {
	pingPong := func(proto mpi.LongProtocol, size int) func(n int) {
		return func(n int) {
			cluster.Run(cluster.Config{Procs: 2, MPI: mpi.Config{Protocol: proto}}, func(r *mpi.Rank) {
				peer := 1 - r.ID()
				for i := 0; i < n; i++ {
					if r.ID() == 0 {
						r.Send(peer, 0, size)
						r.Recv(peer, 0)
					} else {
						r.Recv(peer, 0)
						r.Send(peer, 0, size)
					}
				}
			})
		}
	}
	p.ns("mpi.eager_rt_ns", 10_000, pingPong(mpi.PipelinedRDMA, 1<<10))
	p.ns("mpi.rndv_pipelined_rt_ns", 2_000, pingPong(mpi.PipelinedRDMA, 1<<20))
	p.ns("mpi.rndv_direct_rt_ns", 2_000, pingPong(mpi.DirectRDMARead, 1<<20))
	// The root bench_test.go's BenchmarkSimulatorEventRate shape.
	allocs := p.ms("mpi.allreduce_ms", 10, func(n int) {
		for i := 0; i < n; i++ {
			cluster.Run(cluster.Config{Procs: 4}, func(r *mpi.Rank) {
				for k := 0; k < 50; k++ {
					r.Allreduce(8)
				}
			})
		}
	})
	p.r.set("mpi.allreduce_allocs", allocs, "per 4 ranks x 50 Allreduce(8)")
}

func (p *probes) coll() {
	build := func(procs int) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := coll.Build(coll.Params{Op: coll.OpAllreduce, Algo: coll.Ring, Rank: i % procs, Procs: procs, Size: 64 << 10}); err != nil {
					panic(err)
				}
			}
		}
	}
	p.ns("coll.build_ns.p16", 1000, build(16))
	p.ns("coll.build_ns.p1024", 10, build(1024))

	// What handing schedule progress to a thread costs the host: the
	// same ring Iallreduce program, thread mode over manual mode.
	modeMS := func(mode progress.Mode) float64 {
		prog := collProgram(coll.Ring, mode, collReps)
		ns, _ := timeLoop(p.budget, 1, func(n int) {
			for i := 0; i < n; i++ {
				cluster.Run(prog.instrumented(nil), prog.body)
			}
		})
		return ns / 1e6
	}
	p.r.set("progress.thread_over_manual", modeMS(progress.Thread)/modeMS(progress.Manual), "ring Iallreduce, 16 ranks")
}

// tickClock is a monitor clock that advances 100ns per reading.
type tickClock struct{ t time.Duration }

func (c *tickClock) Now() time.Duration { c.t += 100 * time.Nanosecond; return c.t }

func (p *probes) overlap() {
	table, err := calib.NewTable([]calib.Point{
		{Size: 1, Time: 5 * time.Microsecond},
		{Size: 1 << 20, Time: 1200 * time.Microsecond},
	})
	if err != nil {
		panic(err)
	}
	m := overlap.NewMonitor(overlap.Config{Clock: &tickClock{}, Table: table})
	pairAllocs := p.ns("overlap.call_pair_ns", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			m.CallEnter()
			m.CallExit()
		}
	})
	id := uint64(0)
	xferAllocs := p.ns("overlap.xfer_ns", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			id++
			m.CallEnter()
			m.XferBegin(id, 64<<10)
			m.CallExit()
			m.CallEnter()
			m.XferEnd(id, 0)
			m.CallExit()
		}
	})
	p.r.set("overlap.allocs", pairAllocs+xferAllocs, "call pair + transfer")
	var sink time.Duration
	p.ns("calib.lookup_ns", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += table.XferTime(i % (2 << 20))
		}
	})
	_ = sink
	p.ms("calib.calibrate_ms", 10, func(n int) {
		for i := 0; i < n; i++ {
			cluster.Calibrate(fabric.CostModel{}, nil, 0)
		}
	})
}

// spanChunk is how many spans one tracer takes before the emit probe
// starts a fresh one — about what one LU run emits — so the retained
// probe measures ring spills at a realistic depth, not a gigabyte of
// cold store.
const spanChunk = 1 << 16

func (p *probes) traceAndAnalysis() error {
	emit := func(name string, opts trace.Options, sink trace.Sink) {
		nsChunk, _ := timeLoop(p.budget, 16, func(n int) {
			for k := 0; k < n; k++ {
				tr := trace.New(opts)
				if sink != nil {
					tr.AddSink(sink)
				}
				tk := tr.Track(trace.GroupHost, 0, "rank0")
				for i := 0; i < spanChunk; i++ {
					at := vtime.Time(i) * 20
					tk.Span("mpi", "Send", at, at+10, trace.Args{Peer: 1, Size: 1 << 10})
				}
			}
		})
		p.r.set(name, nsChunk/spanChunk, "per Track.Span")
	}
	emit("trace.span_ns.retained", trace.Options{}, nil)
	emit("trace.span_ns.metrics_only", trace.Options{MetricsOnly: true}, nil)
	emit("trace.span_ns.sink", trace.Options{MetricsOnly: true}, &countSink{})

	_, events, _ := census(luProgram())
	p.r.Exact["trace.records_per_op.lu"] = events
	p.r.set("trace.records_per_op.lu", float64(events), "exact")

	fx, err := buildTraces(p.e.seed)
	if err != nil {
		return err
	}
	clean := fx.traces[0]
	mb := float64(len(clean)) / 1e6
	var buf bytes.Buffer
	nsExport, _ := timeLoop(p.budget, 1, func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			if err := fx.tracers[0].WriteChrome(&buf); err != nil {
				panic(err)
			}
		}
	})
	p.r.set("trace.export_mb_per_s", mb/(nsExport/1e9), fmt.Sprintf("%.1f MB LU trace", mb))

	nsIngest, allocs := timeLoop(p.budget, 1, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := profile.FromChromeJSON(bytes.NewReader(clean), fx.table); err != nil {
				panic(err)
			}
		}
	})
	p.r.set("profile.ingest_mb_per_s", mb/(nsIngest/1e9), fmt.Sprintf("%.1f MB LU trace", mb))
	p.r.set("profile.ingest_allocs", allocs, "per ingest")

	in := fx.input(0)
	var recs int
	for i := range in.Ranks {
		recs += len(in.Ranks[i].Recs)
	}
	nsFeed, _ := timeLoop(p.budget, 1, func(n int) {
		for i := 0; i < n; i++ {
			for k := range in.Ranks {
				rr := profile.NewRankReplay(0, func(profile.XferSample) {})
				for _, rec := range in.Ranks[k].Recs {
					rr.Feed(rec)
				}
				rr.Finish()
			}
		}
	})
	p.r.set("profile.feed_ns", nsFeed/float64(recs), fmt.Sprintf("per record, %d records", recs))

	nsRec, _ := timeLoop(p.budget, 1, func(n int) {
		for i := 0; i < n; i++ {
			an := timeres.New(timeres.Options{Table: fx.table})
			for _, tk := range fx.tracers[0].Tracks() {
				for _, rec := range tk.Recs() {
					an.TraceRec(tk, rec)
				}
			}
		}
	})
	p.r.set("timeres.rec_ns", nsRec/float64(events), fmt.Sprintf("per record, %d records", events))

	var sides [2]analysis
	for i := range sides {
		if sides[i], err = analyze(fx.input(i), sideLabel(i), nil); err != nil {
			return err
		}
	}
	prof, snap := sides[0].run.Profile, sides[0].run.TimeRes
	p.ms("profile.analyze_ms", 1, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := profile.Analyze(in); err != nil {
				panic(err)
			}
		}
	})
	p.ms("profile.encode_ms", 1, func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			if err := prof.EncodeJSON(&buf); err != nil {
				panic(err)
			}
		}
	})
	p.ms("timeres.from_input_ms", 1, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := timeres.FromInput(in, timeres.Options{}); err != nil {
				panic(err)
			}
		}
	})
	p.ms("diagnose.analyze_ms", 1, func(n int) {
		for i := 0; i < n; i++ {
			diagnose.Analyze(diagnose.Input{Profile: prof, TimeRes: snap, Duration: prof.Duration, Procs: prof.Ranks})
		}
	})
	p.ms("diagnose.diff_ms", 1, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := diagnose.Diff(sides[0].run, sides[1].run); err != nil {
				panic(err)
			}
		}
	})
	return nil
}

// scenario splits one traced pass over the scenario corpus by span
// name: what loading, each group of scenarios and evaluation cost.
func (p *probes) scenario() error {
	w := &scenarioCorpus{dir: filepath.Join(p.e.root, "scenarios"), seed: p.e.seed, want: p.e.exp.ScenarioCorpus}
	tr := newSpanRec()
	root := tr.beginOp("op", 0)
	_, err := w.op(0, tr)
	tr.end(root)
	if err != nil {
		return err
	}
	durs := make([]int64, len(tr.spans))
	for i, s := range tr.spans {
		durs[i] = s.End - s.Start
	}
	sum := sumByName(tr.spans, durs)
	for metric, spanName := range map[string]string{
		"scenario.load_ms":      "scenario.LoadDir",
		"scenario.run_ms.calm":  "scenario.Run[calm]",
		"scenario.run_ms.chaos": "scenario.Run[chaos]",
		"scenario.run_ms.ft":    "scenario.Run[ft]",
		"scenario.run_ms.gen":   "scenario.Run[gen]",
		"scenario.evaluate_ms":  "scenario.Evaluate",
	} {
		p.r.set(metric, float64(sum[spanName])/1e6, "span sum over one pass")
	}
	return nil
}

// regress times the three benchgate suites, tying this benchmark back
// to the gate on virtual outputs.
func (p *probes) regress() {
	suites := regress.Suites()
	for _, name := range []string{"overlap", "nas", "coll"} {
		p.ms("regress.suite_ms."+name, 1, func(n int) {
			for i := 0; i < n; i++ {
				suites[name]()
			}
		})
	}
}
