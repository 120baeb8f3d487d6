package mpi_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/mpi"
	"ovlp/internal/progress"
)

// runColl executes main on n ranks with the given collective algorithm
// and progress mode, instrumented, both protocols' default thresholds.
func runColl(t *testing.T, n int, algo coll.Algo, mode progress.Mode, proto mpi.LongProtocol, main func(*mpi.Rank)) cluster.Result {
	t.Helper()
	return cluster.Run(cluster.Config{
		Procs: n,
		MPI: mpi.Config{
			Protocol:   proto,
			CollAlgo:   algo,
			Progress:   progress.Config{Mode: mode},
			Instrument: &mpi.InstrumentConfig{},
		},
		RecordTruth: true,
	}, main)
}

var allModes = []progress.Mode{progress.Manual, progress.Piggyback, progress.Thread}
var allAlgos = []coll.Algo{coll.Binomial, coll.Ring, coll.RecDouble}

// TestNonblockingCollectivesComplete drives every collective through
// every algorithm and progress mode, with computation between start and
// wait, on both a power-of-two and a non-power-of-two world.
func TestNonblockingCollectivesComplete(t *testing.T) {
	ops := []struct {
		name  string
		start func(r *mpi.Rank) *mpi.CollRequest
	}{
		{"Ibcast", func(r *mpi.Rank) *mpi.CollRequest { return r.Ibcast(1, 32<<10) }},
		{"Ireduce", func(r *mpi.Rank) *mpi.CollRequest { return r.Ireduce(0, 32<<10) }},
		{"Iallreduce", func(r *mpi.Rank) *mpi.CollRequest { return r.Iallreduce(32 << 10) }},
		{"Ialltoall", func(r *mpi.Rank) *mpi.CollRequest { return r.Ialltoall(8 << 10) }},
		{"Ibarrier", func(r *mpi.Rank) *mpi.CollRequest { return r.Ibarrier() }},
	}
	for _, procs := range []int{4, 3} {
		for _, op := range ops {
			for _, algo := range allAlgos {
				for _, mode := range allModes {
					name := fmt.Sprintf("p%d/%s/%s/%s", procs, op.name, algo, mode)
					t.Run(name, func(t *testing.T) {
						res := runColl(t, procs, algo, mode, mpi.PipelinedRDMA, func(r *mpi.Rank) {
							cr := op.start(r)
							r.Compute(50 * time.Microsecond)
							r.WaitColl(cr)
							if !cr.Done() {
								t.Errorf("rank %d: not done after WaitColl", r.ID())
							}
						})
						if res.Duration <= 0 {
							t.Error("no virtual time elapsed")
						}
					})
				}
			}
		}
	}
}

// TestCollRequestTest checks manual-mode polling via TestColl and that
// Done performs no progress by itself.
func TestCollRequestTest(t *testing.T) {
	runColl(t, 4, coll.Ring, progress.Manual, mpi.PipelinedRDMA, func(r *mpi.Rank) {
		cr := r.Iallreduce(16 << 10)
		polls := 0
		for !cr.Done() {
			r.Compute(5 * time.Microsecond)
			r.TestColl(cr)
			polls++
			if polls > 10000 {
				t.Fatalf("rank %d: Iallreduce never completed", r.ID())
				return
			}
		}
		if polls == 0 {
			t.Errorf("rank %d: completed with zero polls — suspicious for manual mode", r.ID())
		}
	})
}

// TestSingleRankCollectives checks the degenerate one-process world:
// schedules are empty (or local-only) and complete inside the call.
func TestSingleRankCollectives(t *testing.T) {
	runColl(t, 1, coll.Auto, progress.Thread, mpi.PipelinedRDMA, func(r *mpi.Rank) {
		for _, cr := range []*mpi.CollRequest{
			r.Ibarrier(), r.Ibcast(0, 1024), r.Ireduce(0, 1024),
			r.Iallreduce(1024), r.Ialltoall(1024),
		} {
			if !cr.Done() && !r.TestColl(cr) {
				r.WaitColl(cr)
			}
			if !cr.Done() {
				t.Errorf("%v not done", cr)
			}
		}
	})
}

// TestConcurrentCollectives overlaps two in-flight collectives plus
// point-to-point traffic in the same window, under the thread engine,
// checking context/tag isolation.
func TestConcurrentCollectives(t *testing.T) {
	for _, proto := range []mpi.LongProtocol{mpi.PipelinedRDMA, mpi.DirectRDMARead} {
		t.Run(proto.String(), func(t *testing.T) {
			runColl(t, 4, coll.Auto, progress.Thread, proto, func(r *mpi.Rank) {
				a := r.Iallreduce(64 << 10) // rendezvous-sized
				b := r.Ibcast(2, 4<<10)     // eager-sized
				peer := r.ID() ^ 1
				sq := r.Isend(peer, 42, 2048)
				rq := r.Irecv(peer, 42)
				r.Compute(200 * time.Microsecond)
				r.WaitColl(a)
				r.WaitColl(b)
				r.Wait(sq)
				r.Wait(rq)
				// A blocking collective after the dust settles must still
				// line up across ranks.
				r.Barrier()
			})
		})
	}
}

// TestUnwaitedCollectiveDrainsAtFinalize leaves a collective un-waited;
// finalize must drive it to completion rather than deadlocking or
// abandoning peers.
func TestUnwaitedCollectiveDrainsAtFinalize(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			var reqs [4]*mpi.CollRequest
			runColl(t, 4, coll.RecDouble, mode, mpi.PipelinedRDMA, func(r *mpi.Rank) {
				reqs[r.ID()] = r.Iallreduce(8 << 10)
			})
			for i, cr := range reqs {
				if !cr.Done() {
					t.Errorf("rank %d: collective not drained at finalize", i)
				}
			}
		})
	}
}

// TestThreadModeProgressesWithoutPolls is the core of the subsystem's
// reason to exist: with a progress thread, a multi-round collective
// completes during a long compute with no application polls at all, so
// WaitColl afterwards is (nearly) free. In manual mode the same
// pattern has to run most rounds inside WaitColl.
func TestThreadModeProgressesWithoutPolls(t *testing.T) {
	waitTime := func(mode progress.Mode) time.Duration {
		var wt time.Duration
		runColl(t, 8, coll.Ring, mode, mpi.PipelinedRDMA, func(r *mpi.Rank) {
			cr := r.Iallreduce(32 << 10)
			r.Compute(2 * time.Millisecond)
			r.WaitColl(cr)
			if r.ID() == 0 {
				wt = r.CallTimes()["WaitColl"]
			}
		})
		return wt
	}
	manual := waitTime(progress.Manual)
	thread := waitTime(progress.Thread)
	if thread*2 >= manual {
		t.Errorf("thread-mode WaitColl %v not substantially below manual %v", thread, manual)
	}
}

// TestCollStartNamesTheirCall holds the name table scenarios and
// collstudy share to the calls it names.
func TestCollStartNamesTheirCall(t *testing.T) {
	for name, label := range map[string]string{
		"ibcast": "Ibcast[", "ireduce": "Ireduce[", "iallreduce": "Iallreduce[",
		"ialltoall": "Ialltoall[", "ibarrier": "Ibarrier[",
	} {
		start, ok := mpi.CollStart(name)
		if !ok {
			t.Fatalf("CollStart(%q) not found", name)
		}
		runColl(t, 2, coll.Auto, progress.Manual, mpi.PipelinedRDMA, func(r *mpi.Rank) {
			cr := start(r, 4<<10)
			r.WaitColl(cr)
			if got := cr.String(); !strings.HasPrefix(got, label) {
				t.Errorf("CollStart(%q) started %s", name, got)
			}
		})
	}
	if _, ok := mpi.CollStart("igather"); ok {
		t.Error(`CollStart("igather") found a call`)
	}
}
