package scenario

import (
	"fmt"
	"strings"
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/comb"
	"ovlp/internal/fabric"
	"ovlp/internal/micro"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/progress"
	"ovlp/internal/vtime"
)

// RegionExchange labels the monitored section around each exchange
// iteration, so overlap assertions can scope to it.
const RegionExchange = micro.Region

// mgARMCI is the nas bench that runs NPB MG over the one-sided library
// (paper Sec. 4.4), in a sweep only.
const mgARMCI = "MG-ARMCI"

// compiled is a scenario in the form simulate runs it: the machine, the
// library configuration, the fault and crash plans and the per-rank
// program. compile parses each field once, so its errors are the
// scenario's validation errors.
type compiled struct {
	procs    int
	deadline time.Duration
	mpi      mpi.Config
	faults   *fabric.FaultPlan
	// A crash scenario runs ckpt under cluster.RunFT with crashes and
	// ft; any other runs program under cluster.RunE.
	crashes *fabric.CrashPlan
	ft      cluster.FTOptions
	ckpt    cluster.Checkpointable
	program func(r *mpi.Rank)
	// nas is a nas workload's benchmark parameters. probed is SP's
	// program with Iprobes in its overlap windows (nil for any other
	// workload); armci is the MG-ARMCI benchmark's one-sided program,
	// which a point runs instead of program (nil otherwise). Only a
	// sweep runs them (see run).
	nas    nas.Params
	probed func(r *mpi.Rank)
	armci  func(pr *armci.Proc, v nas.MGVariant)
	// watch holds each rank's mean time per repetition in the span a
	// micro or comb program times itself (nil for other kinds).
	watch []time.Duration
}

// compile turns s into its runnable form. With smoke set the run is
// shrunk for CI: procs capped at smokeProcs (never below MinProcs, and
// only onto a grid the workload can use), reps and iterations capped;
// the workload mix, chaos schedule and assertions are unchanged.
func (s *Scenario) compile(smoke bool) (*compiled, error) {
	bad := func(format string, args ...any) (*compiled, error) {
		return nil, fmt.Errorf("scenario %s: "+format, append([]any{s.Name}, args...)...)
	}
	c := &compiled{procs: s.Procs, deadline: s.Deadline.D()}
	if c.deadline <= 0 {
		c.deadline = DefaultDeadline
	}
	switch strings.ToLower(s.Protocol) {
	case "", "pipelined":
		c.mpi.Protocol = mpi.PipelinedRDMA
	case "direct":
		c.mpi.Protocol = mpi.DirectRDMARead
	default:
		return bad("unknown protocol %q (want pipelined or direct)", s.Protocol)
	}

	c.mpi.HWTimestamps = s.HWTimestamps
	w := &s.Workload
	if w.Algo != "" {
		algo, err := coll.ParseAlgo(w.Algo)
		if err != nil {
			return bad("%w", err)
		}
		c.mpi.CollAlgo = algo
	}
	c.mpi.CollChunk = w.Chunk.N()
	if w.Progress != "" {
		mode, err := progress.ParseMode(w.Progress)
		if err != nil {
			return bad("%w", err)
		}
		c.mpi.Progress = progress.Config{Mode: mode, Quantum: progress.DefaultQuantum}
	}
	reps, iters := w.Reps, w.Iters
	if smoke {
		reps = min(reps, smokeReps)
		if iters == 0 || iters > smokeIters {
			iters = smokeIters
		}
	}
	bench := strings.ToUpper(w.Bench)
	c.nas = nas.Params{Class: nas.ClassS, MaxIters: iters, Overlap: w.Overlap}
	// kernel is the NPB kernel bench runs: MG-ARMCI is MG over the
	// one-sided library.
	kernel := bench
	if bench == mgARMCI {
		kernel = nas.MG
	}
	if (w.Kind == "exchange" || w.Kind == "micro" || w.Kind == "comb") && (w.Size <= 0 || w.Reps <= 0) {
		return bad("%s workload needs a positive size and reps", w.Kind)
	}
	size, compute := w.Size.N(), w.Compute.D()
	switch w.Kind {
	case "exchange":
		c.program = func(r *mpi.Rank) {
			// Ring exchange: Isend to the right neighbour, Irecv from
			// the left, compute while both are in flight. With two
			// ranks this degenerates to the paper's pairwise
			// microbenchmark shape.
			right := (r.ID() + 1) % r.Size()
			left := (r.ID() + r.Size() - 1) % r.Size()
			for i := 0; i < reps; i++ {
				r.PushRegion(RegionExchange)
				sq := r.Isend(right, 0, size)
				rq := r.Irecv(left, 0)
				r.Compute(compute)
				r.Waitall(sq, rq)
				r.PopRegion()
			}
		}
	case "nas":
		if len(w.Class) > 1 {
			return bad("unknown nas class %q", w.Class)
		}
		if w.Class != "" {
			c.nas.Class = nas.Class(strings.ToUpper(w.Class)[0])
		}
		if err := nas.Check(kernel, c.nas.Class, s.Procs); err != nil {
			return bad("%w", err)
		}
		p := c.nas
		if bench == mgARMCI {
			c.armci = func(pr *armci.Proc, v nas.MGVariant) { nas.RunMGARMCI(pr, p, v) }
			break
		}
		c.program = func(r *mpi.Rank) { nas.Run(bench, r, p) }
		if bench == nas.SP {
			probed := p
			probed.Iprobe = true
			c.probed = func(r *mpi.Rank) { nas.Run(bench, r, probed) }
		}
	case "micro", "comb":
		if s.Procs != 2 {
			return bad("%s workload runs on 2 procs, not %d", w.Kind, s.Procs)
		}
		c.watch = make([]time.Duration, 2)
		timed := func(r *mpi.Rank, total time.Duration) { c.watch[r.ID()] = total / time.Duration(reps) }
		if w.Kind == "micro" {
			pair, err := micro.ParseCallPair(w.Pair)
			if err != nil {
				return bad("%w", err)
			}
			c.program = func(r *mpi.Rank) { timed(r, micro.Pair(r, pair, size, reps, compute)) }
			break
		}
		method, err := comb.ParseMethod(w.Method)
		if err != nil {
			return bad("%w", err)
		}
		work := w.Work.D()
		c.program = func(r *mpi.Rank) { timed(r, comb.Exchange(r, method, size, reps, work)) }
	case "coll":
		start, ok := mpi.CollStart(w.Op)
		if !ok {
			return bad("unknown collective %q", w.Op)
		}
		if w.Op != "ibarrier" && w.Size <= 0 {
			return bad("collective %s needs a positive size", w.Op)
		}
		if w.Reps <= 0 {
			return bad("coll workload needs positive reps")
		}
		polls := w.Polls
		c.program = func(r *mpi.Rank) { micro.PolledColl(r, start, size, reps, polls, compute) }
	default:
		return bad("unknown workload kind %q (want exchange, nas, coll, micro or comb)", w.Kind)
	}

	// FT before MinProcs: its errors name the crash declarations
	// precisely, and once it passes the crash-derived part of MinProcs
	// fits s.Procs, so a MinProcs excess can only come from the chaos
	// schedule.
	if s.wantsFT() {
		var crashes []fabric.Crash
		for i, cr := range s.Crashes {
			if cr.At <= 0 {
				return bad("crash %d needs a positive at", i)
			}
			crashes = append(crashes, fabric.Crash{Node: fabric.NodeID(cr.Node), At: vtime.Time(cr.At)})
		}
		if len(crashes) > 0 {
			c.crashes = &fabric.CrashPlan{Crashes: crashes}
			err := c.crashes.Validate()
			if err == nil {
				err = c.crashes.CheckNodes(s.Procs)
			}
			if err == nil {
				err = c.crashes.CheckSurvivors(s.Procs)
			}
			if err != nil {
				return bad("%w", err)
			}
		}
		if r := s.Recovery; r != nil {
			mode, err := cluster.ParseRecoveryMode(r.Mode)
			if err != nil {
				return bad("%w", err)
			}
			if r.CheckpointEvery < 0 || r.MinProcs < 0 || r.Heartbeat < 0 {
				return bad("recovery parameters must be non-negative")
			}
			if r.MinProcs > s.Procs {
				return bad("recovery min_procs %d exceeds procs %d", r.MinProcs, s.Procs)
			}
			c.ft = cluster.FTOptions{Mode: mode, CheckpointEvery: r.CheckpointEvery,
				MinProcs: r.MinProcs, Heartbeat: r.Heartbeat.D()}
		}
		// Only workloads with a recoverable structure have a stepwise,
		// shrink-tolerant form: the ring exchange and NPB CG, FT and MG.
		switch w.Kind {
		case "exchange":
			c.ckpt = &micro.ExchangeWorkload{MsgSize: w.Size.N(), Compute: w.Compute.D(), StepCount: reps}
		case "nas":
			var ok bool
			if c.ckpt, ok = nas.CheckpointableKernel(bench, c.nas); !ok {
				return bad("crash scenarios support nas cg, ft and mg, not %s", bench)
			}
		default:
			return bad("crash scenarios need a checkpointable workload (exchange, or nas cg/ft/mg), not %q", w.Kind)
		}
	}
	if n := s.MinProcs(); s.Procs < n {
		return bad("chaos schedule names node %d but procs is %d", n-1, s.Procs)
	}

	if r := s.Reliable; r != nil {
		retries := r.MaxRetries
		if retries < 0 {
			// Scenario semantics: negative disables retransmission.
			retries = fabric.NoRetries
		}
		c.mpi.Reliable = &fabric.ReliableParams{Timeout: r.Timeout.D(), MaxRetries: retries, Backoff: r.Backoff}
	}
	var err error
	if c.faults, err = s.FaultPlan(); err != nil {
		return nil, err
	}

	if smoke && c.procs > smokeProcs {
		c.procs = max(smokeProcs, s.MinProcs())
		// Never shrink onto a grid the NPB kernel cannot use; s.Procs
		// itself passed nas.Check, so this stops.
		for w.Kind == "nas" && nas.Check(kernel, c.nas.Class, c.procs) != nil {
			c.procs++
		}
	}
	return c, nil
}
