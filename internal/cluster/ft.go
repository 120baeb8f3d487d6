package cluster

// Fault-tolerant runs: crash-stop failures with detect→agree→recover
// epochs. RunFT drives a Checkpointable workload under a crash plan;
// when a rank dies, the survivors agree on the failure (mpi.Agree),
// abandon the failed epoch (mpi.EpochCut) and continue on the
// shrunken communicator — either from the earliest step every
// survivor completed (ShrinkContinue) or from the last committed
// in-memory checkpoint (CheckpointRestart). Recovery phases run inside
// dedicated monitored regions ("ft-agree", "ft-checkpoint",
// "ft-rollback", "ft-recompute"), which is how the offline profiler
// attributes recovery cost to the agree/rollback/recompute blame
// causes, and every epoch boundary is an instant on the rank's trace
// track.

import (
	"errors"
	"fmt"
	"time"

	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
)

// RecoveryMode selects what the survivors do after an agreed failure.
type RecoveryMode int

const (
	// ShrinkContinue keeps the survivors' in-memory state and resumes
	// from the earliest step every survivor completed (degraded mode:
	// fewer ranks, no state restore).
	ShrinkContinue RecoveryMode = iota
	// CheckpointRestart restores from the last committed in-memory
	// checkpoint (neighbor-replicated at every checkpoint interval) and
	// replays from there.
	CheckpointRestart
)

func (m RecoveryMode) String() string {
	switch m {
	case ShrinkContinue:
		return "shrink-continue"
	case CheckpointRestart:
		return "checkpoint-restart"
	}
	return "invalid"
}

// ParseRecoveryMode parses a mode's String form; "" selects the
// default ShrinkContinue, so flag and scenario defaults agree.
func ParseRecoveryMode(s string) (RecoveryMode, error) {
	switch s {
	case "", ShrinkContinue.String():
		return ShrinkContinue, nil
	case CheckpointRestart.String():
		return CheckpointRestart, nil
	}
	return 0, fmt.Errorf("unknown recovery mode %q (want %s or %s)",
		s, ShrinkContinue, CheckpointRestart)
}

// Checkpointable is the workload contract the fault-tolerant runner
// drives: a stepwise computation that can rebuild its communication
// structure on a (possibly shrunken) communicator and whose per-rank
// state has a declared size, so checkpoint and restore traffic can be
// modelled faithfully.
type Checkpointable interface {
	// Name identifies the workload in results and traces.
	Name() string
	// Steps is the number of recoverable work units.
	Steps() int
	// StateBytes is the per-rank checkpoint payload when the workload
	// runs on procs ranks.
	StateBytes(procs int) int
	// Init prepares the workload on c — called once at start and again
	// after every shrink, so implementations must tolerate a changed
	// communicator size.
	Init(c *mpi.Comm)
	// Step runs one work unit on c. Steps replayed after a rollback are
	// re-invoked with the same index.
	Step(c *mpi.Comm, step int)
}

// Recovery-phase region names the FT runner brackets its recovery
// protocol with. internal/profile gives transfers initiated inside them
// the matching recovery blame instead of the healthy-run taxonomy.
const (
	RegionAgree      = "ft-agree"
	RegionCheckpoint = "ft-checkpoint"
	RegionRollback   = "ft-rollback"
	RegionRecompute  = "ft-recompute"
)

// checkpointTag is the reserved point-to-point tag of the neighbor
// replica exchange.
const checkpointTag = 911

// FTOptions parameterizes recovery policy.
type FTOptions struct {
	// Mode selects shrink-continue (default) or checkpoint-restart.
	Mode RecoveryMode
	// CheckpointEvery is the step interval between checkpoints in
	// CheckpointRestart mode; 0 means every step.
	CheckpointEvery int
	// CheckpointBandwidth models the local serialize/copy rate of
	// checkpoint state, in bytes per second; 0 means 4 GiB/s.
	CheckpointBandwidth float64
	// MinProcs aborts the run (ErrTooFewSurvivors) when an agreement
	// leaves fewer active ranks; 0 means 1.
	MinProcs int
	// Heartbeat overrides the failure detector's ping period (see
	// mpi.FTConfig); 0 keeps the default. Ignored when the cluster
	// Config already carries an MPI.FT configuration.
	Heartbeat time.Duration
}

func (o *FTOptions) fillDefaults() {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
	if o.CheckpointBandwidth <= 0 {
		o.CheckpointBandwidth = 4 << 30
	}
	if o.MinProcs <= 0 {
		o.MinProcs = 1
	}
}

// ErrTooFewSurvivors reports that an agreed failure left fewer active
// ranks than FTOptions.MinProcs, so the workload could not continue.
var ErrTooFewSurvivors = errors.New("cluster: too few survivors to continue")

// FTResult extends Result with what the recovery machinery observed.
type FTResult struct {
	Result
	// Epochs is the number of recovery epochs entered (0 for a
	// failure-free run: everything happened in epoch 0).
	Epochs int
	// Failed is the final agreed set of dead world ranks, ascending.
	Failed []int
	// Survivors is the active membership after the last agreement
	// (world ranks, ascending); nil for a failure-free run.
	Survivors []int
	// Checkpoints counts committed checkpoints (CheckpointRestart).
	Checkpoints int
	// ReplayedSteps counts work units re-executed after rollbacks,
	// summed over ranks.
	ReplayedSteps int
	// Completed reports whether the workload ran all its steps.
	Completed bool
}

// ftShared is the run-wide recovery bookkeeping. Ranks execute under
// the simulator's coroutine discipline, so plain fields suffice.
type ftShared struct {
	epochs      int
	failed      []int
	survivors   []int
	checkpoints int
	replayed    int
	completed   bool
	tooFew      bool
}

// RunFT executes a Checkpointable workload on a fault-tolerant
// machine and returns the observations. Crash-stop failures declared
// in cfg.Crashes are injected, detected, agreed and recovered; the
// planned crashes' rank errors are expected and filtered from the
// returned error, so a run that loses exactly the planned ranks and
// completes returns nil. MPI fault tolerance (cfg.MPI.FT) and reliable
// delivery are enabled automatically.
func RunFT(cfg Config, opt FTOptions, wl Checkpointable) (FTResult, error) {
	opt.fillDefaults()
	if wl == nil {
		panic("cluster: RunFT requires a workload")
	}
	if cfg.MPI.FT == nil {
		cfg.MPI.FT = &mpi.FTConfig{HeartbeatPeriod: opt.Heartbeat}
	}
	if cfg.MPI.Reliable == nil {
		cfg.MPI.Reliable = &fabric.ReliableParams{}
	}
	st := &ftShared{}
	res, err := RunE(cfg, ftMain(opt, wl, st))
	out := FTResult{
		Result:        res,
		Epochs:        st.epochs,
		Failed:        st.failed,
		Survivors:     st.survivors,
		Checkpoints:   st.checkpoints,
		ReplayedSteps: st.replayed,
		Completed:     st.completed,
	}
	err = filterExpectedCrashes(err, cfg.Crashes)
	if st.tooFew && err == nil {
		err = fmt.Errorf("%w: %d < %d after failure of ranks %v",
			ErrTooFewSurvivors, len(st.survivors), opt.MinProcs, st.failed)
	}
	return out, err
}

// ftMain is the per-rank driver: protected work segments with an
// agree→cut→shrink→rollback recovery loop between them.
func ftMain(opt FTOptions, wl Checkpointable, st *ftShared) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		c := r.World()
		step := 0      // next work unit to run
		reached := 0   // highest step this rank ever completed
		committed := 0 // last committed checkpoint step (0 = initial state)
		needInit := true
		needRestore := false
		for {
			err := r.Protect(func() {
				if needInit {
					wl.Init(c)
					needInit = false
				}
				if needRestore {
					restoreCheckpoint(r, c, wl, opt)
					needRestore = false
				}
				for step < wl.Steps() {
					if opt.Mode == CheckpointRestart && step > committed && step%opt.CheckpointEvery == 0 {
						takeCheckpoint(r, c, wl, opt)
						committed = step
						if c.Rank() == 0 {
							st.checkpoints++
						}
					}
					if step < reached {
						r.PushRegion(RegionRecompute)
						wl.Step(c, step)
						r.PopRegion()
						st.replayed++
					} else {
						wl.Step(c, step)
					}
					step++
					if step > reached {
						reached = step
					}
				}
			})
			if err == nil {
				st.completed = true
				return
			}
			// Recovery: agree on who died and where to resume, close the
			// failed epoch, and continue on the surviving ranks.
			vote := step
			if opt.Mode == CheckpointRestart {
				vote = committed
			}
			r.PushRegion(RegionAgree)
			res := r.Agree(vote, step >= wl.Steps())
			r.EpochCut()
			c = r.Shrink()
			r.PopRegion()
			if ep := r.Epoch(); ep > st.epochs {
				st.epochs = ep
			}
			if len(res.Failed) > len(st.failed) {
				st.failed = res.Failed
				st.survivors = res.Active
			}
			if len(res.Active) < opt.MinProcs {
				st.tooFew = true
				return
			}
			if res.AllDone {
				// Every active survivor had already finished its steps;
				// nothing to resume.
				st.completed = true
				return
			}
			step = res.MinStep
			needInit = true
			if opt.Mode == CheckpointRestart {
				committed = res.MinStep
				needRestore = true
			}
		}
	}
}

// copyCost models the host-side serialize/copy time of a checkpoint
// payload.
func copyCost(bytes int, opt FTOptions) time.Duration {
	return time.Duration(float64(bytes) / opt.CheckpointBandwidth * float64(time.Second))
}

// takeCheckpoint commits one in-memory checkpoint: each rank copies
// its state and replicates it to its ring neighbor (buddy scheme), and
// a barrier marks the commit point — a crash mid-checkpoint rolls the
// run back to the previous committed step.
func takeCheckpoint(r *mpi.Rank, c *mpi.Comm, wl Checkpointable, opt FTOptions) {
	r.PushRegion(RegionCheckpoint)
	defer r.PopRegion()
	bytes := wl.StateBytes(c.Size())
	if n := c.Size(); n > 1 {
		next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
		c.Sendrecv(next, checkpointTag, bytes, prev, checkpointTag)
	}
	r.Compute(copyCost(bytes, opt))
	c.Barrier()
}

// restoreCheckpoint is the rollback phase: survivors fetch the replica
// partition of their lost neighbor's state, copy their own back in,
// and resynchronize.
func restoreCheckpoint(r *mpi.Rank, c *mpi.Comm, wl Checkpointable, opt FTOptions) {
	r.PushRegion(RegionRollback)
	defer r.PopRegion()
	bytes := wl.StateBytes(c.Size())
	if n := c.Size(); n > 1 {
		next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
		c.Sendrecv(prev, checkpointTag, bytes, next, checkpointTag)
	}
	r.Compute(copyCost(bytes, opt))
	c.Barrier()
}

// filterExpectedCrashes removes the planned crash-stop failures from a
// run's error: a rank that died because the crash plan said so is an
// injected condition, not a run failure. Unexpected rank errors and
// simulation-level errors (deadlock, deadline) survive the filter.
func filterExpectedCrashes(err error, plan *fabric.CrashPlan) error {
	if err == nil || !plan.Active() {
		return err
	}
	planned := make(map[int]bool, len(plan.Crashes))
	for _, cr := range plan.Crashes {
		planned[int(cr.Node)] = true
	}
	re, ok := err.(*RunErrors)
	if !ok {
		return err
	}
	var kept []RankError
	for _, r := range re.Ranks {
		var nce *fabric.NodeCrashedError
		if planned[r.Rank] && errors.As(r.Err, &nce) {
			continue
		}
		kept = append(kept, r)
	}
	if len(kept) == 0 && re.Sim == nil {
		return nil
	}
	if len(kept) == 0 {
		return re.Sim
	}
	return &RunErrors{Ranks: kept, Sim: re.Sim}
}
