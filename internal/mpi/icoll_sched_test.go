package mpi_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/mpi"
	"ovlp/internal/progress"
	"ovlp/internal/trace"
)

// collOps are the five nonblocking collectives at sizes that take the
// rendezvous path on the large ones and the eager path on the rest.
var collOps = []struct {
	name  string
	start func(r *mpi.Rank) *mpi.CollRequest
}{
	{"Ibcast", func(r *mpi.Rank) *mpi.CollRequest { return r.Ibcast(1, 48<<10) }},
	{"Ireduce", func(r *mpi.Rank) *mpi.CollRequest { return r.Ireduce(0, 48<<10) }},
	{"Iallreduce", func(r *mpi.Rank) *mpi.CollRequest { return r.Iallreduce(64 << 10) }},
	{"Ialltoall", func(r *mpi.Rank) *mpi.CollRequest { return r.Ialltoall(4 << 10) }},
	{"Ibarrier", func(r *mpi.Rank) *mpi.CollRequest { return r.Ibarrier() }},
}

// TestAdvanceCursorMatchesFullScan holds the finished-prefix cursor in
// CollRequest.advance to the full-scan loop it replaced (export_test.go):
// the same program must post the same transfers in the same order at the
// same virtual instants. The exported trace carries every action start —
// transfer ids are handed out in post order, local Reduce/Copy steps are
// kernel Compute spans — so byte-equal traces are equal start orders.
func TestAdvanceCursorMatchesFullScan(t *testing.T) {
	type shape struct {
		name         string
		procs, chunk int
	}
	shapes := []shape{{"p16", 16, 0}, {"p12", 12, 0}, {"p16-chunk8K", 16, 8 << 10}}
	run := func(sh shape, algo coll.Algo, mode progress.Mode, start func(*mpi.Rank) *mpi.CollRequest) (cluster.Result, []byte) {
		tr := trace.New(trace.Options{})
		res := cluster.Run(cluster.Config{
			Procs: sh.procs,
			MPI: mpi.Config{
				CollAlgo:   algo,
				CollChunk:  sh.chunk,
				Progress:   progress.Config{Mode: mode},
				Instrument: &mpi.InstrumentConfig{},
			},
			RecordTruth: true,
			Trace:       tr,
		}, func(r *mpi.Rank) {
			// Two schedules in flight, polled a few times, so sweeps see
			// partly finished schedules with finished prefixes of every
			// length.
			a, b := start(r), start(r)
			for i := 0; i < 4; i++ {
				r.Compute(20 * time.Microsecond)
				r.TestColl(a)
			}
			r.WaitColl(b)
			r.WaitColl(a)
		})
		return res, tr.AppendChrome(nil)
	}
	for _, sh := range shapes {
		for _, op := range collOps {
			for _, algo := range allAlgos {
				for _, mode := range allModes {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", sh.name, op.name, algo, mode), func(t *testing.T) {
						got, gotTrace := run(sh, algo, mode, op.start)
						mpi.UseReferenceAdvance(t)
						want, wantTrace := run(sh, algo, mode, op.start)
						if got.Duration != want.Duration {
							t.Errorf("virtual duration %v, full scan %v", got.Duration, want.Duration)
						}
						if !reflect.DeepEqual(got.Transfers, want.Transfers) {
							t.Errorf("transfer log differs from the full scan's (%d vs %d transfers)", len(got.Transfers), len(want.Transfers))
						}
						if !bytes.Equal(gotTrace, wantTrace) {
							t.Errorf("exported trace differs from the full scan's (%d vs %d bytes)", len(gotTrace), len(wantTrace))
						}
					})
				}
			}
		}
	}
}

// TestScheduleMemoUnchangedByRuns: a rank builds each schedule once and
// every later call reads the same *coll.Schedule, so nothing on the
// execution path may write to it. After a full run every memoised
// schedule must still equal a fresh Build of its key.
func TestScheduleMemoUnchangedByRuns(t *testing.T) {
	for _, algo := range allAlgos {
		for _, mode := range allModes {
			t.Run(fmt.Sprintf("%s/%s", algo, mode), func(t *testing.T) {
				const procs, reps = 6, 3
				memos := make([]map[coll.Params]*coll.Schedule, procs)
				cluster.Run(cluster.Config{
					Procs: procs,
					MPI: mpi.Config{
						CollAlgo:   algo,
						CollChunk:  16 << 10,
						Progress:   progress.Config{Mode: mode},
						Instrument: &mpi.InstrumentConfig{},
					},
				}, func(r *mpi.Rank) {
					for k := 0; k < reps; k++ {
						var crs []*mpi.CollRequest
						for _, op := range collOps {
							crs = append(crs, op.start(r))
						}
						r.Compute(100 * time.Microsecond)
						for _, cr := range crs {
							r.WaitColl(cr)
						}
					}
					memos[r.ID()] = r.Schedules()
				})
				for rank, memo := range memos {
					if len(memo) != len(collOps) {
						t.Errorf("rank %d memoised %d schedules for %d distinct collectives × %d repetitions", rank, len(memo), len(collOps), reps)
					}
					for p, sch := range memo {
						fresh, err := coll.Build(p)
						if err != nil {
							t.Fatalf("rank %d: Build(%+v): %v", rank, p, err)
						}
						if !reflect.DeepEqual(sch, fresh) {
							t.Errorf("rank %d: memoised schedule for %+v no longer equals a fresh Build", rank, p)
						}
					}
				}
			})
		}
	}
}

// TestIallreduceAllocsPerCall pins what one more Iallreduce costs a
// rank, as the slope between runs of N and 4N repetitions (set-up and
// teardown cancel). Building the schedule per call added coll.Build's
// 14 allocations to it (47 per call; 33 with the memo, 3 while each
// call built its label and copied the schedule's actions); one, the
// handle, is left, and the bound leaves no room for another.
func TestIallreduceAllocsPerCall(t *testing.T) {
	const procs, n = 4, 20
	run := func(reps int) float64 {
		return testing.AllocsPerRun(3, func() {
			cluster.Run(cluster.Config{Procs: procs, MPI: mpi.Config{CollAlgo: coll.Ring}}, func(r *mpi.Rank) {
				for k := 0; k < reps; k++ {
					r.WaitColl(r.Iallreduce(8 << 10))
				}
			})
		})
	}
	atN, at4N := run(n), run(4*n)
	perCall := (at4N - atN) / (3 * n * procs)
	t.Logf("%d reps: %.0f allocs, %d reps: %.0f allocs, %.1f per Iallreduce per rank", n, atN, 4*n, at4N, perCall)
	if perCall > 1.5 {
		t.Errorf("%.1f allocations per Iallreduce per rank, want 1: is the schedule rebuilt or copied per call?", perCall)
	}
}
