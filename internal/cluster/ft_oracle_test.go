package cluster_test

import (
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/progress"
	"ovlp/internal/vtime"
)

// The crash-recovery oracle extends the ground-truth validation to
// runs that lose ranks: with epoch cuts splitting each rank's stream,
// the per-epoch measures must still be internally consistent with an
// independent replay of the event stream, the epochs must sum exactly
// to the whole-run totals, and the derived bounds must bracket the
// true overlap of every transfer the wire actually delivered — no
// matter whether the crash lands mid-rendezvous, mid-collective or
// inside a checkpoint, and regardless of who advances the progress
// engine.

// collWL stresses collectives: each step is mostly a mid-sized
// allreduce, so a crash lands inside one with high probability.
type collWL struct {
	steps   int
	bytes   int
	compute time.Duration
}

func (w *collWL) Name() string             { return "coll" }
func (w *collWL) Steps() int               { return w.steps }
func (w *collWL) StateBytes(procs int) int { return w.bytes }
func (w *collWL) Init(c *mpi.Comm)         { c.Bcast(0, 8) }
func (w *collWL) Step(c *mpi.Comm, step int) {
	c.Host().Compute(w.compute)
	c.Allreduce(w.bytes)
	c.Alltoall(w.bytes / c.Size())
}

// ftOracleCase is one cell of the crash matrix.
type ftOracleCase struct {
	name  string
	mode  cluster.RecoveryMode
	wl    cluster.Checkpointable
	crash time.Duration
	every int
}

func ftOracleCases() []ftOracleCase {
	return []ftOracleCase{
		// Large rendezvous messages in flight when the node dies.
		{"mid-rendezvous", cluster.ShrinkContinue,
			&ringWL{steps: 8, bytes: 1 << 20, compute: 300 * time.Microsecond},
			800 * time.Microsecond, 0},
		// Crash inside a collective.
		{"mid-collective", cluster.ShrinkContinue,
			&collWL{steps: 8, bytes: 256 << 10, compute: 100 * time.Microsecond},
			700 * time.Microsecond, 0},
		// Checkpoint every step with a large state: the crash lands in
		// or next to the replica exchange, and recovery adds rollback
		// and recompute traffic to later epochs.
		{"during-checkpoint", cluster.CheckpointRestart,
			&ringWL{steps: 8, bytes: 64 << 10, compute: 50 * time.Microsecond},
			900 * time.Microsecond, 1},
	}
}

// TestFTBoundsUnderCrash drives the crash matrix across all three
// progress modes and validates per-epoch consistency plus the
// min ≤ true ≤ max invariant on the delivered transfers.
func TestFTBoundsUnderCrash(t *testing.T) {
	for _, pm := range []progress.Mode{progress.Manual, progress.Piggyback, progress.Thread} {
		for _, tc := range ftOracleCases() {
			t.Run(tc.name+"/"+pm.String(), func(t *testing.T) {
				checkFTOracle(t, pm, tc)
			})
		}
	}
}

func checkFTOracle(t *testing.T, pm progress.Mode, tc ftOracleCase) {
	t.Helper()
	const procs = 4
	cost := fabric.DefaultCostModel()
	table := cluster.Calibrate(cost, nil, 0)

	ic, logs := captured(table, 0, procs)
	cfg := cluster.Config{
		Procs:       procs,
		Cost:        cost,
		MPI:         mpi.Config{Progress: progress.Config{Mode: pm}, Instrument: ic},
		RecordTruth: true,
		Crashes: &fabric.CrashPlan{Crashes: []fabric.Crash{
			{Node: 2, At: vtime.Time(tc.crash)},
		}},
		Deadline: 10 * time.Second,
	}
	res, err := cluster.RunFT(cfg, cluster.FTOptions{
		Mode:            tc.mode,
		CheckpointEvery: tc.every,
		// Large modelled state so checkpoint traffic is substantial.
		CheckpointBandwidth: 1 << 30,
	}, tc.wl)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !res.Completed || res.Epochs == 0 {
		t.Fatalf("recovery did not happen: completed=%v epochs=%d", res.Completed, res.Epochs)
	}

	// Whole-run totals, the report's epoch breakdown entry for entry
	// (survivors only: the dead rank never cuts, so its report has no
	// epochs), and the bounds of every transfer the wire completed —
	// those swallowed by the crash were never delivered.
	checkOracle(t, logs, res.Reports, res.Transfers, table, slack(cost, 0, true))
}
