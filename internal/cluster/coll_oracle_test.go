package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/progress"
)

// Nonblocking-collective oracle validation. Every schedule algorithm
// under every progress mode must produce per-transfer bounds that
// bracket the ground-truth overlap, and the monitor's incremental
// totals must match an independent trace replay — exactly the same
// contract oracle_test.go enforces for point-to-point traffic.

// collCase names one collective invocation in the workload.
type collCase struct {
	op   string
	size int
}

// collWorkload starts the collective, computes with a few interleaved
// TestColl polls, then waits. Root 1 exercises a non-zero root.
func collWorkload(c collCase, polls int, compute time.Duration) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		var cr *mpi.CollRequest
		switch c.op {
		case "ibcast":
			cr = r.Ibcast(1%r.Size(), c.size)
		case "ireduce":
			cr = r.Ireduce(1%r.Size(), c.size)
		case "iallreduce":
			cr = r.Iallreduce(c.size)
		case "ialltoall":
			cr = r.Ialltoall(c.size)
		case "ibarrier":
			cr = r.Ibarrier()
		default:
			panic("unknown op " + c.op)
		}
		chunk := compute / time.Duration(polls+1)
		for k := 0; k <= polls; k++ {
			r.Compute(chunk)
			if k < polls {
				r.TestColl(cr)
			}
		}
		r.WaitColl(cr)
		r.Compute(20 * time.Microsecond)
	}
}

// checkCollBounds runs the workload under the given collective/progress
// configuration and applies both oracle checks to every rank.
func checkCollBounds(t *testing.T, procs int, algo coll.Algo, mode progress.Mode, chunk int, workload func(r *mpi.Rank)) {
	t.Helper()
	cost := fabric.DefaultCostModel()
	table := cluster.Calibrate(cost, nil, 0)

	ic, logs := captured(table, 64, procs)
	res := cluster.Run(cluster.Config{
		Procs: procs,
		Cost:  cost,
		MPI: mpi.Config{
			CollAlgo:   algo,
			CollChunk:  chunk,
			Progress:   progress.Config{Mode: mode},
			Instrument: ic,
		},
		RecordTruth: true,
	}, workload)
	checkOracle(t, logs, res.Reports, res.Transfers, table, slack(cost, 0, false))
}

// TestCollectiveBounds sweeps every nonblocking collective × schedule
// algorithm × progress mode on two message sizes straddling the
// 12 KiB eager/rendezvous threshold (power-of-two world).
func TestCollectiveBounds(t *testing.T) {
	ops := []string{"ibcast", "ireduce", "iallreduce", "ialltoall", "ibarrier"}
	algos := []coll.Algo{coll.Binomial, coll.Ring, coll.RecDouble}
	modes := []progress.Mode{progress.Manual, progress.Piggyback, progress.Thread}
	sizes := []int{4 << 10, 256 << 10}

	for _, op := range ops {
		for _, algo := range algos {
			for _, mode := range modes {
				for _, size := range sizes {
					if op == "ibarrier" && size != sizes[0] {
						continue // barrier carries no payload
					}
					name := fmt.Sprintf("%s/%s/%s/%dKiB", op, algo, mode, size>>10)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						checkCollBounds(t, 4, algo, mode, 0,
							collWorkload(collCase{op, size}, 2, 400*time.Microsecond))
					})
				}
			}
		}
	}
}

// TestCollectiveBoundsNonPow2 repeats the sweep on a 3-rank world,
// where recursive doubling falls back per-operation.
func TestCollectiveBoundsNonPow2(t *testing.T) {
	ops := []string{"ibcast", "ireduce", "iallreduce", "ialltoall", "ibarrier"}
	for _, op := range ops {
		for _, algo := range []coll.Algo{coll.Binomial, coll.Ring, coll.RecDouble} {
			t.Run(fmt.Sprintf("%s/%s", op, algo), func(t *testing.T) {
				t.Parallel()
				checkCollBounds(t, 3, algo, progress.Thread, 0,
					collWorkload(collCase{op, 32 << 10}, 2, 400*time.Microsecond))
			})
		}
	}
}

// TestCollectiveBoundsChunked validates pipelined (chunked) schedules:
// a 256 KiB payload split into 64 KiB chunks.
func TestCollectiveBoundsChunked(t *testing.T) {
	for _, op := range []string{"ibcast", "iallreduce"} {
		for _, mode := range []progress.Mode{progress.Manual, progress.Thread} {
			t.Run(fmt.Sprintf("%s/%s", op, mode), func(t *testing.T) {
				t.Parallel()
				checkCollBounds(t, 4, coll.Auto, mode, 64<<10,
					collWorkload(collCase{op, 256 << 10}, 2, 500*time.Microsecond))
			})
		}
	}
}

// TestThreadProgressRecoversMinBound is the headline acceptance check:
// with an application that never polls, the progress thread must
// recover a substantially higher certified minimum overlap than manual
// progression, whose later rounds all complete inside WaitColl (the
// same-call case certifies zero).
func TestThreadProgressRecoversMinBound(t *testing.T) {
	minSum := map[progress.Mode]time.Duration{}
	dataSum := map[progress.Mode]time.Duration{}
	for _, mode := range []progress.Mode{progress.Manual, progress.Thread} {
		cfg := cluster.Config{
			Procs: 8,
			MPI: mpi.Config{
				CollAlgo: coll.Ring,
				Progress: progress.Config{Mode: mode},
				Instrument: &mpi.InstrumentConfig{
					Table: cluster.Calibrate(fabric.DefaultCostModel(), nil, 0),
				},
			},
		}
		res := cluster.Run(cfg, func(r *mpi.Rank) {
			cr := r.Iallreduce(256 << 10)
			r.Compute(4 * time.Millisecond) // no polls at all
			r.WaitColl(cr)
		})
		for _, rep := range res.Reports {
			tot := rep.Total()
			minSum[mode] += tot.MinOverlapped
			dataSum[mode] += tot.DataTransferTime
		}
	}
	if minSum[progress.Thread] <= 2*minSum[progress.Manual] {
		t.Fatalf("thread-mode min bound %v does not dominate manual %v",
			minSum[progress.Thread], minSum[progress.Manual])
	}
	if minSum[progress.Thread] < dataSum[progress.Thread]/4 {
		t.Fatalf("thread-mode min bound %v recovers under a quarter of transfer time %v",
			minSum[progress.Thread], dataSum[progress.Thread])
	}
}
