// Package cluster assembles a complete simulated machine — virtual
// time kernel, RDMA fabric, and an instrumented communication library —
// and runs message-passing programs on it. It is the top-level entry
// point the examples, benchmarks and experiment binaries use.
package cluster

import (
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/clock"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// Config describes the machine and library configuration for one run.
type Config struct {
	// Procs is the number of ranks (one per node).
	Procs int
	// Backend selects the clock the kernel runs on: BackendVirtual
	// (the default) jumps from event to event, deterministically;
	// BackendReal waits for each event's instant on Clock. Everything
	// else — faults, crashes, FT, reliable delivery — is the same code
	// on both.
	Backend Backend
	// Clock drives a BackendReal run; nil selects the machine's
	// monotonic clock (clock.Real()). Tests substitute a
	// clock.Stepped. Ignored for BackendVirtual.
	Clock clock.Clock
	// Cost is the fabric cost model; the zero value selects
	// fabric.DefaultCostModel.
	Cost fabric.CostModel
	// MPI configures the message-passing library. If MPI.Instrument is
	// non-nil but its Table is nil, the table is produced by running
	// Calibrate on the same cost model first — exactly the paper's
	// a-priori characterization step.
	MPI mpi.Config
	// RecordTruth has the fabric keep its ground-truth transfer log and
	// returns it in the result (costs memory proportional to message
	// count). Without it — and without a Trace, whose wire spans carry
	// the same intervals — the fabric records nothing per transfer.
	RecordTruth bool
	// Faults, when non-nil and active, injects deterministic link and
	// NIC faults (see fabric.FaultPlan). An active plan implies
	// reliable delivery: if MPI.Reliable is nil it is filled with
	// default fabric.ReliableParams so lost packets are retransmitted
	// rather than deadlocking the run.
	Faults *fabric.FaultPlan
	// Crashes, when non-nil and active, injects crash-stop node
	// failures (see fabric.CrashPlan): at each crash instant the node's
	// NIC goes dead and its rank is killed with a
	// *fabric.NodeCrashedError (recovered into Result.RankErrors). Like
	// Faults, an active plan implies reliable delivery. Without MPI.FT
	// the surviving ranks abort with retry-exhaustion errors when they
	// next need the dead node; with it they detect, agree and recover
	// (see RunFT).
	Crashes *fabric.CrashPlan
	// Deadline, when positive, bounds the run time: if the simulation
	// is still live at this (virtual or wall-clock, per Backend) time,
	// RunE returns a *vtime.DeadlockError describing every stuck
	// process instead of simulating forever.
	Deadline time.Duration
	// Trace, when non-nil, traces the whole run into the given tracer:
	// kernel scheduling spans, library call spans, overlap events,
	// ground-truth wire spans and fault/retransmit instants, plus the
	// metrics registry snapshotted into Result.Metrics. The tracer is
	// wired through every layer (sim observer, fabric, mpi.Config), so
	// callers set only this field.
	Trace *trace.Tracer
}

// Result collects everything observable after a run.
type Result struct {
	// Reports holds each rank's instrumentation report (nil entries
	// when uninstrumented).
	Reports []*overlap.Report
	// Duration is the total virtual run time.
	Duration time.Duration
	// MPITimes is each rank's aggregate time inside library calls.
	MPITimes []time.Duration
	// Transfers is the ground-truth transfer log (only when
	// Config.RecordTruth).
	Transfers []fabric.Transfer
	// FaultStats counts the faults the fabric actually injected
	// (zero value when Config.Faults is nil or inactive).
	FaultStats fabric.FaultStats
	// RelStats holds each rank's reliable-delivery counters (zero
	// values when the run is not configured for reliable delivery).
	RelStats []fabric.RelStats
	// Metrics is the end-of-run metrics snapshot (nil when the run is
	// untraced).
	Metrics *trace.Snapshot
	// Calib is the a-priori transfer-time table the instrumentation
	// used (nil when the run was uninstrumented). Offline analysis
	// (internal/profile) needs the same table to replay the bounds
	// algorithm.
	Calib *calib.Table
	// RankErrors holds each rank's recovered structured failure (nil
	// entries for ranks that finished cleanly). When any entry is
	// non-nil, RunE's error is a *RunErrors aggregating them all.
	RankErrors []error
}

// Run executes main on every rank of a freshly built machine and
// returns the observations. It is deterministic: identical
// configurations and programs produce identical results. Errors
// (deadlock, retry exhaustion) panic; use RunE to receive them as
// values.
func Run(cfg Config, main func(r *mpi.Rank)) Result {
	res, err := RunE(cfg, main)
	if err != nil {
		panic(err)
	}
	return res
}

// RunE is Run returning simulation failures — communication errors
// after retry exhaustion (mpi.ErrTimeout, mpi.ErrPeerUnreachable) and
// deadlocks (*vtime.DeadlockError) — as errors instead of panicking.
// The returned Result carries whatever was observable up to the
// failure (at minimum the virtual duration and fault counters).
//
// A rank that panics with an error value (the library's structured
// *mpi.CommError path) is recovered in place: the rank finishes, the
// simulation keeps running, and every failed rank's error is
// aggregated into Result.RankErrors and a returned *RunErrors — so a
// partition that times out five ranks reports all five, not just the
// first. Non-error panics (bugs) still abort the run.
func RunE(cfg Config, main func(r *mpi.Rank)) (Result, error) {
	var table **calib.Table
	if ic := cfg.MPI.Instrument; ic != nil {
		table = &ic.Table
	}
	sim, fab, err := build(&cfg, table, &cfg.MPI.Reliable)
	if err != nil {
		return Result{}, err
	}
	if cfg.Trace != nil {
		cfg.MPI.Tracer = cfg.Trace
	}
	world := mpi.NewWorld(sim, fab, cfg.MPI)
	if cfg.Crashes.Active() {
		// After SetFaults, so crashes can anchor to labelled chaos
		// events; the callback kills the node's rank at the instant its
		// NIC dies.
		if err := fab.SetCrashes(cfg.Crashes); err != nil {
			return Result{}, err
		}
		fab.OnCrash(func(n fabric.NodeID) {
			world.KillRank(int(n), &fabric.NodeCrashedError{Node: n, At: sim.Now()})
		})
	}

	ranks := make([]*mpi.Rank, 0, cfg.Procs)
	world.Start(func(r *mpi.Rank) {
		ranks = append(ranks, r)
		main(r)
	})
	end, simErr := sim.RunE()
	rankErrs := world.RankErrors()
	err = combineErrors(rankErrs, simErr)

	res := Result{
		Reports:    world.Reports(),
		Duration:   end.Duration(),
		MPITimes:   make([]time.Duration, cfg.Procs),
		FaultStats: fab.FaultStats(),
		RelStats:   make([]fabric.RelStats, cfg.Procs),
		RankErrors: rankErrs,
	}
	for _, r := range ranks {
		res.MPITimes[r.ID()] = r.MPITime()
		res.RelStats[r.ID()] = r.RelStats()
	}
	res.Transfers = fab.Transfers() // nil unless RecordTruth had the fabric retain it
	res.Metrics = foldMetrics(cfg.Trace, res.Duration, res.FaultStats, res.RelStats, res.Reports)
	if ic := cfg.MPI.Instrument; ic != nil {
		res.Calib = ic.Table
	}
	return res, err
}

// build assembles the machine a run executes on from the settings MPI
// and ARMCI runs share: it fills a zero cost model with the default,
// checks an instrument table's clock domain and calibrates a missing
// one on the run's own backend (table is nil for an uninstrumented
// run), fills nil reliable-delivery parameters when faults or crashes
// are active, and builds the kernel and fabric with the run's faults,
// deadline and tracer wired in. The caller hands cfg.Trace to its
// library; crash plans are the caller's, since only MPI ranks can be
// killed.
func build(cfg *Config, table **calib.Table, rel **fabric.ReliableParams) (*vtime.Sim, *fabric.Fabric, error) {
	if cfg.Procs <= 0 {
		panic("cluster: Procs must be positive")
	}
	if (cfg.Cost == fabric.CostModel{}) {
		cfg.Cost = fabric.DefaultCostModel()
	}
	if table != nil {
		if err := checkTableDomain(*table, cfg.Backend, cfg.Clock); err != nil {
			return nil, nil, err
		}
		if *table == nil {
			*table = CalibrateBackend(cfg.Backend, cfg.Clock, cfg.Cost, calib.StandardSizes(), 5)
		}
	}
	if (cfg.Faults.Active() || cfg.Crashes.Active()) && *rel == nil {
		*rel = &fabric.ReliableParams{}
	}
	sim := newSim(cfg.Backend, cfg.Clock)
	fab := fabric.New(sim, cfg.Procs, cfg.Cost)
	fab.RetainTruth(cfg.RecordTruth)
	if cfg.Faults.Active() {
		if err := fab.SetFaults(cfg.Faults); err != nil {
			return nil, nil, err
		}
	}
	if cfg.Deadline > 0 {
		sim.SetDeadline(vtime.Time(cfg.Deadline))
	}
	if cfg.Trace != nil {
		sim.SetObserver(cfg.Trace.KernelObserver())
		fab.SetTrace(cfg.Trace)
		cfg.Trace.SetClockDomain(runDomain(cfg.Backend, cfg.Clock))
	}
	return sim, fab, nil
}

// Calibrate measures the fabric's transfer time for each message size
// by timing RDMA writes between two nodes, repeating reps times per
// size and averaging — the simulation analogue of characterizing the
// interconnect with the vendor's perf_main utility before the
// application runs. It always measures on the virtual backend; use
// CalibrateBackend for a wall-clock table.
func Calibrate(cost fabric.CostModel, sizes []int, reps int) *calib.Table {
	return calibrate(vtime.NewSim(), cost, sizes, reps)
}

// calibrate runs the ping-pong characterization on the given kernel.
func calibrate(sim *vtime.Sim, cost fabric.CostModel, sizes []int, reps int) *calib.Table {
	if (cost == fabric.CostModel{}) {
		cost = fabric.DefaultCostModel()
	}
	if len(sizes) == 0 {
		sizes = calib.StandardSizes()
	}
	if reps <= 0 {
		reps = 5
	}
	fab := fabric.New(sim, 2, cost)
	src, dst := fab.NIC(0), fab.NIC(1)

	type token struct{ seq int }
	totals := make([]time.Duration, len(sizes))
	var posted vtime.Time

	receiver := sim.Spawn("calib-recv", func(p *vtime.Proc) {
		for i := 0; i < len(sizes)*reps; i++ {
			var pkt *fabric.Packet
			for pkt == nil {
				if !dst.Pending() {
					p.Park("calib.recv")
					continue
				}
				if q := dst.PollInbox(p); q != nil {
					pkt = q
					break
				}
				dst.PollCQ(p) // drain completions of our own acks
			}
			arrival := p.Now()
			totals[pkt.Payload.(token).seq] += arrival.Sub(posted)
			// Acknowledge so the sender paces one transfer at a time.
			dst.Send(p, 0, 0, 0, token{})
		}
	})
	dst.SetNotify(func() { receiver.Unpark() })

	sender := sim.Spawn("calib-send", func(p *vtime.Proc) {
		for si, size := range sizes {
			for rep := 0; rep < reps; rep++ {
				posted = p.Now()
				src.RDMAWrite(p, 1, size, 0, token{seq: si})
				// Drain the local completion and the ack.
				got := 0
				for got < 2 {
					if src.Pending() {
						if cqe := src.PollCQ(p); cqe != nil {
							got++
							continue
						}
						if pkt := src.PollInbox(p); pkt != nil {
							got++
							continue
						}
					}
					p.Park("calib.send")
				}
			}
		}
	})
	src.SetNotify(func() { sender.Unpark() })

	sim.Run()
	points := make([]calib.Point, len(sizes))
	for i, size := range sizes {
		points[i] = calib.Point{Size: size, Time: totals[i] / time.Duration(reps)}
	}
	table, err := calib.NewTable(points)
	if err != nil {
		panic("cluster: calibration produced invalid table: " + err.Error())
	}
	return table
}
