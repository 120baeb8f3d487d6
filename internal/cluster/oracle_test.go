package cluster_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/overlap/oracle"
)

// The ground-truth tests hold the instrumentation to the independent
// bounds oracle (internal/overlap/oracle) two ways no real system can:
// each rank's raw event stream, replayed, must reproduce the monitor's
// incrementally aggregated report exactly (this exercises the circular
// queue and drain machinery), and the bounds of every transfer the
// fabric double-stamped must bracket the true overlap within a
// tolerance for the library's view: it sees the CQ, not the wire.

// slack is a tolerance on top of the library-view vs wire-view mismatch
// eps: 5 % calibration slack on the wire interval where the bounds must
// not understate the overlap, and — with even set, for runs where
// retransmission or recovery widens the library's detection window —
// where they must not overstate it either; extra (injected jitter)
// joins both sides.
func slack(cost fabric.CostModel, extra time.Duration, even bool) oracle.Slack {
	eps := cost.LinkLatency + cost.DMAStartup + 2*time.Microsecond + extra
	return func(wire, _ time.Duration) (lower, upper time.Duration) {
		if even {
			return eps + wire/20, eps + wire/20
		}
		return eps, eps + wire/20
	}
}

// captured returns an instrumentation config that logs every rank's raw
// event stream, and the logs.
func captured(table *calib.Table, queue, procs int) (*mpi.InstrumentConfig, []overlap.EventLog) {
	logs := make([]overlap.EventLog, procs)
	return &mpi.InstrumentConfig{Table: table, QueueSize: queue,
		SinkFor: func(rank int) overlap.Sink { return &logs[rank] }}, logs
}

// checkOracle applies both oracle checks to every rank of a run whose
// event streams were captured in logs.
func checkOracle(t *testing.T, logs []overlap.EventLog, reports []*overlap.Report,
	transfers []fabric.Transfer, table *calib.Table, slack oracle.Slack) {
	t.Helper()
	truth := oracle.Truth(transfers)
	for rank, rep := range reports {
		o := oracle.Run(logs[rank], rep.Duration, table, 0)
		if bad := append(o.Violations, o.CheckTotals(rep)...); len(bad) > 0 {
			t.Fatalf("rank %d: %s", rank, strings.Join(bad, "\n"))
		}
		for _, msg := range append(o.CheckTruth(truth, slack), o.Inexact...) {
			t.Errorf("rank %d %s", rank, msg)
		}
	}
}

// randomWorkload builds a deadlock-free random message-passing
// program for p ranks from the given seed. All ranks share the
// schedule (derived from the same seed) so matching is guaranteed.
func randomWorkload(p int, seed int64) func(r *mpi.Rank) {
	type step struct {
		kind    int // 0 exchange, 1 allreduce, 2 barrier, 3 bcast
		size    int
		compute time.Duration
		iprobes int
	}
	rng := rand.New(rand.NewSource(seed))
	steps := make([]step, 12+rng.Intn(10))
	for i := range steps {
		steps[i] = step{
			kind:    rng.Intn(4),
			size:    1 + rng.Intn(2<<20),
			compute: time.Duration(rng.Intn(2_000_000)), // up to 2ms
			iprobes: rng.Intn(3),
		}
	}
	return func(r *mpi.Rank) {
		for _, s := range steps {
			switch s.kind {
			case 0: // pairwise non-blocking exchange with computation
				peer := r.ID() ^ 1
				if peer >= r.Size() { // odd world: pair with self -> skip
					r.Compute(s.compute)
					continue
				}
				sq := r.Isend(peer, 0, s.size)
				rq := r.Irecv(peer, 0)
				chunk := s.compute / time.Duration(s.iprobes+1)
				for k := 0; k <= s.iprobes; k++ {
					r.Compute(chunk)
					if k < s.iprobes {
						r.Iprobe(mpi.AnySource, mpi.AnyTag)
					}
				}
				r.Waitall(sq, rq)
			case 1:
				r.Compute(s.compute / 2)
				r.Allreduce(8 + s.size%1024)
			case 2:
				r.Compute(s.compute / 3)
				r.Barrier()
			case 3:
				r.Compute(s.compute / 4)
				r.Bcast(0, s.size%(64<<10)+1)
			}
		}
	}
}

func TestBoundsAgainstGroundTruth(t *testing.T) {
	for _, proto := range []mpi.LongProtocol{mpi.PipelinedRDMA, mpi.DirectRDMARead} {
		for _, p := range []int{2, 4} {
			for seed := int64(1); seed <= 6; seed++ {
				t.Run("", func(t *testing.T) {
					checkWorkload(t, proto, false, p, seed)
				})
			}
		}
		// With NIC hardware time-stamps the oracle prices exact transfers
		// too, and holds each to what an unbounded window would prove.
		t.Run("hw", func(t *testing.T) {
			checkWorkload(t, proto, true, 4, 1)
			checkWorkload(t, proto, true, 4, 2)
		})
	}
}

func checkWorkload(t *testing.T, proto mpi.LongProtocol, hw bool, p int, seed int64) {
	t.Helper()
	cost := fabric.DefaultCostModel()
	table := cluster.Calibrate(cost, nil, 0)
	ic, logs := captured(table, 64, p) // small queue: exercise many drains
	res := cluster.Run(cluster.Config{
		Procs:       p,
		Cost:        cost,
		MPI:         mpi.Config{Protocol: proto, HWTimestamps: hw, Instrument: ic},
		RecordTruth: true,
	}, randomWorkload(p, seed))
	checkOracle(t, logs, res.Reports, res.Transfers, table, slack(cost, 0, false))
}
