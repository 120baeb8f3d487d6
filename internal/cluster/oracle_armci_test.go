package cluster_test

import (
	"math/rand"
	"testing"
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
)

// The ARMCI variant of the ground-truth oracle: one-sided traffic with
// randomized blocking/non-blocking structure must produce bounds that
// replay exactly and bracket the physical overlap.

func randomARMCIWorkload(p int, seed int64) func(pr *armci.Proc) {
	type step struct {
		kind    int // 0 NbPut, 1 Put, 2 NbGet, 3 strided NbPut, 4 barrier
		size    int
		count   int
		compute time.Duration
		defer_  bool // wait late (after compute) vs immediately
	}
	rng := rand.New(rand.NewSource(seed))
	steps := make([]step, 10+rng.Intn(10))
	for i := range steps {
		steps[i] = step{
			kind:    rng.Intn(5),
			size:    1 + rng.Intn(1<<20),
			count:   1 + rng.Intn(32),
			compute: time.Duration(rng.Intn(1_500_000)),
			defer_:  rng.Intn(2) == 0,
		}
	}
	return func(pr *armci.Proc) {
		right := (pr.ID() + 1) % pr.Size()
		for _, s := range steps {
			switch s.kind {
			case 0, 2, 3:
				var h *armci.Handle
				switch s.kind {
				case 0:
					h = pr.NbPut(right, s.size)
				case 2:
					h = pr.NbGet(right, s.size)
				default:
					h = pr.NbPutStrided(right, s.count, s.size/s.count+1)
				}
				if s.defer_ {
					pr.Compute(s.compute)
					pr.WaitHandle(h)
				} else {
					pr.WaitHandle(h)
					pr.Compute(s.compute)
				}
			case 1:
				pr.Put(right, s.size)
				pr.Compute(s.compute / 2)
			case 4:
				pr.Compute(s.compute / 3)
				pr.Barrier()
			}
		}
		pr.FenceAll()
		pr.Barrier()
	}
}

func TestARMCIBoundsAgainstGroundTruth(t *testing.T) {
	for _, p := range []int{2, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run("", func(t *testing.T) {
				cost := fabric.DefaultCostModel()
				table := cluster.Calibrate(cost, nil, 0)
				logs := make([]overlap.EventLog, p)
				res, err := cluster.RunARMCI(cluster.ARMCIConfig{
					Procs: p,
					Cost:  cost,
					ARMCI: armci.Config{Instrument: &overlap.Instrument{
						Table:     table,
						QueueSize: 32,
						SinkFor:   func(rank int) overlap.Sink { return &logs[rank] },
					}},
					RecordTruth: true,
				}, randomARMCIWorkload(p, seed))
				if err != nil {
					t.Fatal(err)
				}
				checkOracle(t, logs, res.Reports, res.Transfers, table, slack(cost, 0, false))
			})
		}
	}
}
