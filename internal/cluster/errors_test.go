package cluster_test

import (
	"errors"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
)

// TestSimultaneousRankFailuresAggregated: two ranks timing out at the
// same time under total loss must both be reported — the old
// first-error-wins path dropped one of them.
func TestSimultaneousRankFailuresAggregated(t *testing.T) {
	res, err := cluster.RunE(cluster.Config{
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
		// Both ranks send into the void simultaneously; neither ever
		// sees an ack, so both exhaust their retry budget.
		r.Send(1-r.ID(), 0, 1024)
	})
	if err == nil {
		t.Fatal("want an aggregated error, got nil")
	}
	var re *cluster.RunErrors
	if !errors.As(err, &re) {
		t.Fatalf("want *cluster.RunErrors, got %T: %v", err, err)
	}
	if len(re.Ranks) != 2 {
		t.Fatalf("want both ranks reported, got %d: %v", len(re.Ranks), re)
	}
	for rank := 0; rank < 2; rank++ {
		rerr := res.RankErrors[rank]
		if rerr == nil {
			t.Fatalf("rank %d missing from aggregate: %v", rank, re)
		}
		if !errors.Is(rerr, mpi.ErrPeerUnreachable) {
			t.Fatalf("rank %d: want ErrPeerUnreachable, got %v", rank, rerr)
		}
		var ce *mpi.CommError
		if !errors.As(rerr, &ce) {
			t.Fatalf("rank %d: want *mpi.CommError with call-site detail, got %v", rank, rerr)
		}
		if ce.Rank != rank || ce.Peer != 1-rank || ce.Op == "" {
			t.Fatalf("rank %d: bad CommError detail: %+v", rank, ce)
		}
		if res.RankErrors[rank] == nil {
			t.Fatalf("Result.RankErrors[%d] not populated", rank)
		}
	}
	// The whole-run error still satisfies sentinel matching.
	if !errors.Is(err, mpi.ErrPeerUnreachable) {
		t.Fatalf("aggregate loses sentinel matching: %v", err)
	}
}

// TestNoRetriesSentinelSurfacesUnreachable: the NoRetries sentinel
// must mean exactly zero retransmissions (MaxRetries: 0 selects the
// default budget, so "no retries" needs the sentinel), and the
// resulting retry exhaustion must surface as ErrPeerUnreachable
// through cluster.RunE's per-rank error aggregation, not just at the
// fabric layer.
func TestNoRetriesSentinelSurfacesUnreachable(t *testing.T) {
	res, err := cluster.RunE(cluster.Config{
		Procs: 2,
		MPI: mpi.Config{
			Reliable: &fabric.ReliableParams{Timeout: 20 * time.Microsecond, MaxRetries: fabric.NoRetries},
		},
		Faults: &fabric.FaultPlan{
			Seed:   1,
			Stalls: []fabric.StallWindow{{Node: 1, Start: 0, End: fabric.Forever}},
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
		t.Fatalf("want ErrPeerUnreachable, got %v", err)
	}
	var re *cluster.RunErrors
	if !errors.As(err, &re) {
		t.Fatalf("want *cluster.RunErrors, got %T: %v", err, err)
	}
	rerr := res.RankErrors[0]
	if rerr == nil {
		t.Fatalf("rank 0 failure missing from aggregate: %v", re)
	}
	var ce *mpi.CommError
	if !errors.As(rerr, &ce) {
		t.Fatalf("want *mpi.CommError, got %v", rerr)
	}
	if ce.Attempts != 1 {
		t.Fatalf("NoRetries must mean a single attempt, got %d", ce.Attempts)
	}
	if res.RankErrors[0] == nil {
		t.Fatalf("Result.RankErrors[0] not populated")
	}
	for rank, rs := range res.RelStats {
		if rs.Retransmits != 0 {
			t.Fatalf("NoRetries must suppress retransmission, rank %d resent %d times", rank, rs.Retransmits)
		}
	}
}

// TestSingleRankFailureKeepsShape: with exactly one failing rank the
// aggregate still reports it (as a *RunErrors) and sentinel matching
// is preserved; the healthy rank has no entry.
func TestSingleRankFailureKeepsShape(t *testing.T) {
	res, err := cluster.RunE(cluster.Config{
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
		t.Fatalf("want ErrPeerUnreachable, got %v", err)
	}
	var re *cluster.RunErrors
	if !errors.As(err, &re) {
		t.Fatalf("want *cluster.RunErrors, got %T", err)
	}
	if res.RankErrors[0] == nil {
		t.Fatalf("rank 0 failure missing: %v", re)
	}
	// Rank 1 blocks in Recv forever; its slot stays nil and the
	// simulation-level deadlock is carried alongside.
	if res.RankErrors[1] != nil {
		t.Fatalf("healthy-but-stuck rank 1 should have no rank error, got %v", res.RankErrors[1])
	}
	if re.Sim == nil {
		t.Fatalf("want the deadline/deadlock carried in Sim, got %v", re)
	}
}
