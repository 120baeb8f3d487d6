package cluster_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/vtime"
)

// The fault-oracle tests extend the ground-truth validation to
// misbehaving networks: under packet loss, duplication, jitter and
// finite DMA stalls, the reliable-delivery layer retransmits behind
// the instrumentation's back, and the derived bounds must still
// bracket the true overlap of every delivered transfer. Bandwidth
// degradation and large jitter are deliberately excluded — they break
// the a-priori calibration premise the bounds algorithm rests on, so
// no instrumentation-side guarantee exists there.

const faultJitterMax = 2 * time.Microsecond

// randomFaultPlan derives an oracle-safe fault plan from seed: drops,
// duplicates, small jitter, and (on some seeds) one finite stall.
func randomFaultPlan(seed int64, procs int) *fabric.FaultPlan {
	rng := rand.New(rand.NewSource(seed * 7919))
	plan := &fabric.FaultPlan{
		Seed: seed,
		Default: fabric.LinkFaults{
			DropRate:  0.02 + 0.10*rng.Float64(),
			DupRate:   0.10 * rng.Float64(),
			JitterMax: time.Duration(rng.Int63n(int64(faultJitterMax))),
		},
	}
	if rng.Intn(2) == 0 {
		start := vtime.Time(time.Duration(1+rng.Intn(500)) * time.Microsecond)
		plan.Stalls = []fabric.StallWindow{{
			Node:  fabric.NodeID(rng.Intn(procs)),
			Start: start,
			End:   start + vtime.Time(100*time.Microsecond),
		}}
	}
	return plan
}

func TestBoundsUnderRandomFaults(t *testing.T) {
	for _, proto := range []mpi.LongProtocol{mpi.PipelinedRDMA, mpi.DirectRDMARead} {
		for _, p := range []int{2, 4} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run("", func(t *testing.T) {
					checkFaultyWorkload(t, proto, p, seed)
				})
			}
		}
	}
}

func checkFaultyWorkload(t *testing.T, proto mpi.LongProtocol, p int, seed int64) {
	t.Helper()
	cost := fabric.DefaultCostModel()
	table := cluster.Calibrate(cost, nil, 0)
	plan := randomFaultPlan(seed, p)

	ic, logs := captured(table, 64, p)
	cfg := cluster.Config{
		Procs:       p,
		Cost:        cost,
		MPI:         mpi.Config{Protocol: proto, Reliable: &fabric.ReliableParams{}, Instrument: ic},
		RecordTruth: true,
		Faults:      plan,
		Deadline:    10 * time.Second,
	}
	res, err := cluster.RunE(cfg, randomWorkload(p, seed))
	if err != nil {
		t.Fatalf("proto %v p %d seed %d: run failed under faults: %v", proto, p, seed, err)
	}

	var retransmits int
	for _, rs := range res.RelStats {
		retransmits += rs.Retransmits + rs.Reposts
	}
	t.Logf("proto %v p %d seed %d: faults %+v, %d retransmit(s)/repost(s)",
		proto, p, seed, res.FaultStats, retransmits)

	// Internal consistency must survive fault-induced event orderings
	// (spurious completions, late acks, drained queues), and retransmits
	// must never inflate the bounds past the truth: the wire-level
	// transfer still matches calibration, so only the jitter bound joins
	// the usual library-view tolerance.
	checkOracle(t, logs, res.Reports, res.Transfers, table, slack(cost, faultJitterMax, true))
}

// faultRunSignature reduces a run to comparable bytes: the per-rank
// reports plus every counter that fault injection touches.
func faultRunSignature(t *testing.T, res cluster.Result) []byte {
	t.Helper()
	sig, err := json.Marshal(struct {
		Reports    []*overlap.Report
		Duration   time.Duration
		MPITimes   []time.Duration
		FaultStats fabric.FaultStats
		RelStats   []fabric.RelStats
	}{res.Reports, res.Duration, res.MPITimes, res.FaultStats, res.RelStats})
	if err != nil {
		t.Fatalf("marshal run signature: %v", err)
	}
	return sig
}

func faultDeterminismRun(t *testing.T, seed int64) cluster.Result {
	t.Helper()
	res, err := cluster.RunE(cluster.Config{
		Procs: 4,
		MPI: mpi.Config{
			Protocol:   mpi.PipelinedRDMA,
			Instrument: &mpi.InstrumentConfig{},
		},
		Faults: randomFaultPlan(seed, 4),
	}, randomWorkload(4, seed))
	if err != nil {
		t.Fatalf("seed %d: run failed: %v", seed, err)
	}
	return res
}

// TestFaultPlanDeterminism: the same FaultPlan seed must reproduce the
// run bit for bit — reports, durations and every fault counter.
func TestFaultPlanDeterminism(t *testing.T) {
	a := faultRunSignature(t, faultDeterminismRun(t, 3))
	b := faultRunSignature(t, faultDeterminismRun(t, 3))
	if string(a) != string(b) {
		t.Fatalf("same seed, different runs:\n%s\nvs\n%s", a, b)
	}
	c := faultRunSignature(t, faultDeterminismRun(t, 4))
	if string(a) == string(c) {
		t.Fatal("different fault seeds produced identical runs")
	}
}

// TestInactivePlanIsByteIdentical: a nil or zero-rate plan must leave
// the run byte-for-byte identical to one with no plan at all.
func TestInactivePlanIsByteIdentical(t *testing.T) {
	run := func(plan *fabric.FaultPlan) []byte {
		res, err := cluster.RunE(cluster.Config{
			Procs: 2,
			MPI: mpi.Config{
				Protocol:   mpi.DirectRDMARead,
				Instrument: &mpi.InstrumentConfig{},
			},
			Faults: plan,
		}, randomWorkload(2, 5))
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return faultRunSignature(t, res)
	}
	bare := run(nil)
	zero := run(&fabric.FaultPlan{Seed: 99}) // seeded but all rates zero
	if string(bare) != string(zero) {
		t.Fatalf("inactive fault plan perturbed the run:\n%s\nvs\n%s", bare, zero)
	}
}

// TestRetryExhaustionPeerUnreachable: total loss toward a peer that
// never answers must surface as mpi.ErrPeerUnreachable from RunE, not
// as a panic or a hang.
func TestRetryExhaustionPeerUnreachable(t *testing.T) {
	_, err := cluster.RunE(cluster.Config{
		Procs: 2,
		MPI: mpi.Config{
			Reliable: &fabric.ReliableParams{Timeout: 20 * time.Microsecond, MaxRetries: 3},
		},
		Faults: &fabric.FaultPlan{
			Seed:    1,
			Default: fabric.LinkFaults{DropRate: 1.0},
		},
		Deadline: time.Second,
	}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 1024)
		} else {
			r.Recv(0, 0)
		}
	})
	if !errors.Is(err, mpi.ErrPeerUnreachable) {
		t.Fatalf("want mpi.ErrPeerUnreachable, got %v", err)
	}
	var ce *mpi.CommError
	if !errors.As(err, &ce) {
		t.Fatalf("want *mpi.CommError in chain, got %v", err)
	}
	if ce.Rank != 0 || ce.Peer != 1 || ce.Attempts != 4 {
		t.Fatalf("bad CommError detail: %+v", ce)
	}
}

// TestRetryExhaustionTimeout: when the peer has answered before (so it
// is demonstrably alive) and retransmission is disabled, a lost packet
// must surface as mpi.ErrTimeout.
func TestRetryExhaustionTimeout(t *testing.T) {
	_, err := cluster.RunE(cluster.Config{
		Procs: 2,
		MPI: mpi.Config{
			// NoRetries: first timeout is fatal.
			Reliable: &fabric.ReliableParams{Timeout: 20 * time.Microsecond, MaxRetries: fabric.NoRetries},
		},
		Faults: &fabric.FaultPlan{
			Seed: 1,
			// Drop packets 2, 4, ... on every link: the first message
			// and its ack get through, the second message is lost.
			Default: fabric.LinkFaults{DropEvery: 2},
		},
		Deadline: time.Second,
	}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 256)
			r.Send(1, 0, 256)
		} else {
			r.Recv(0, 0)
			r.Recv(0, 0)
		}
	})
	if !errors.Is(err, mpi.ErrTimeout) {
		t.Fatalf("want mpi.ErrTimeout, got %v", err)
	}
}

// TestPermanentStallSurfacesError: a NIC blackholed from t=0 makes its
// rank's traffic vanish without a trace; with reliable delivery the
// sender must give up with a structured error instead of deadlocking.
func TestPermanentStallSurfacesError(t *testing.T) {
	_, err := cluster.RunE(cluster.Config{
		Procs: 2,
		MPI: mpi.Config{
			Reliable: &fabric.ReliableParams{Timeout: 20 * time.Microsecond, MaxRetries: 2},
		},
		Faults: &fabric.FaultPlan{
			Seed:   1,
			Stalls: []fabric.StallWindow{{Node: 0, Start: 0, End: fabric.Forever}},
		},
		Deadline: time.Second,
	}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 1024)
		} else {
			r.Recv(0, 0)
		}
	})
	if !errors.Is(err, mpi.ErrPeerUnreachable) {
		t.Fatalf("want mpi.ErrPeerUnreachable from a blackholed NIC, got %v", err)
	}
}

// TestDeadlockReturnsStructuredError: a genuinely stuck program (a
// receive nobody matches) must come back from RunE as a typed
// *vtime.DeadlockError naming the stuck process, not as a panic.
func TestDeadlockReturnsStructuredError(t *testing.T) {
	_, err := cluster.RunE(cluster.Config{Procs: 2}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Recv(1, 7) // never sent
		}
	})
	var de *vtime.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *vtime.DeadlockError, got %v", err)
	}
	if len(de.Procs) == 0 {
		t.Fatalf("deadlock report names no processes: %+v", de)
	}
}

// TestDeadlineExpiryReturnsError: Config.Deadline bounds runaway
// virtual time with the same structured error.
func TestDeadlineExpiryReturnsError(t *testing.T) {
	_, err := cluster.RunE(cluster.Config{
		Procs:    2,
		Deadline: 5 * time.Millisecond,
	}, func(r *mpi.Rank) {
		for {
			r.Compute(time.Millisecond)
		}
	})
	var de *vtime.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *vtime.DeadlockError on deadline expiry, got %v", err)
	}
}

// TestARMCIUnderFaults: the one-sided library recovers from loss too —
// puts, gets and barriers complete through retransmission and the
// repair work is visible in the counters.
func TestARMCIUnderFaults(t *testing.T) {
	res, err := cluster.RunARMCI(cluster.ARMCIConfig{
		Procs: 2,
		ARMCI: armci.Config{Instrument: &armci.InstrumentConfig{}},
		Faults: &fabric.FaultPlan{
			Seed:    2,
			Default: fabric.LinkFaults{DropRate: 0.3, DupRate: 0.1},
		},
		Deadline: 10 * time.Second,
	}, func(p *armci.Proc) {
		if p.ID() == 0 {
			for i := 0; i < 8; i++ {
				h := p.NbPut(1, 64<<10)
				p.Compute(200 * time.Microsecond)
				p.WaitHandle(h)
			}
			p.Get(1, 32<<10)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatalf("ARMCI run failed under faults: %v", err)
	}
	if res.Reports[0].Total().Count < 9 {
		t.Fatalf("proc 0 completed %d transfers, want >=9", res.Reports[0].Total().Count)
	}
	var repairs int
	for _, rs := range res.RelStats {
		repairs += rs.Retransmits + rs.Reposts
	}
	if res.FaultStats.Dropped == 0 || repairs == 0 {
		t.Fatalf("expected injected drops and repairs, got faults %+v, %d repair(s)",
			res.FaultStats, repairs)
	}
}
