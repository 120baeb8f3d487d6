package mpi_test

import (
	"math"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/fabric"
	"ovlp/internal/hostcount"
	"ovlp/internal/mpi"
)

// The library's per-message bookkeeping allocates nothing once warm:
// the blocking calls' requests come back to their rank and are handed
// out again, and every protocol header crosses the fabric as a value.

const (
	warmRounds = 64  // round trips before measuring: lists and tables reach their peak
	rounds     = 200 // round trips per measurement
)

// roundTripAllocs runs warmRounds and then hostcount.Attempts × rounds
// round trips of size bytes between two ranks and returns the fewest
// heap allocations one measurement of rounds made, both ranks'
// together.
func roundTripAllocs(t *testing.T, cfg mpi.Config, size int, sendrecv bool) uint64 {
	t.Helper()
	var allocs uint64
	cluster.Run(cluster.Config{Procs: 2, MPI: cfg}, func(r *mpi.Rank) {
		peer := 1 - r.ID()
		trip := func() {
			switch {
			case sendrecv:
				r.Sendrecv(peer, 0, size, peer, 0)
			case r.ID() == 0:
				r.Send(peer, 0, size)
				r.Recv(peer, 0)
			default:
				r.Recv(peer, 0)
				r.Send(peer, 0, size)
			}
		}
		for i := 0; i < warmRounds; i++ {
			trip()
		}
		if r.ID() != 0 {
			for i := 0; i < hostcount.Attempts*rounds; i++ {
				trip()
			}
			return
		}
		allocs = hostcount.Mallocs(func() {
			for i := 0; i < rounds; i++ {
				trip()
			}
		})
	})
	return allocs
}

func TestRoundTripAllocsNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto mpi.LongProtocol
		size  int
	}{
		{"eager", mpi.PipelinedRDMA, 1 << 10},
		{"pipelined", mpi.PipelinedRDMA, 200 << 10},
		{"direct", mpi.DirectRDMARead, 200 << 10},
	} {
		for _, reliable := range []bool{false, true} {
			for _, sendrecv := range []bool{false, true} {
				name := tc.name
				if reliable {
					name += "/reliable"
				}
				if sendrecv {
					name += "/sendrecv"
				} else {
					name += "/send-recv"
				}
				t.Run(name, func(t *testing.T) {
					cfg := mpi.Config{Protocol: tc.proto}
					if reliable {
						cfg.Reliable = &fabric.ReliableParams{}
					}
					got := roundTripAllocs(t, cfg, tc.size, sendrecv)
					// The reliable layer's duplicate-suppression ledgers
					// gain a key per message; their rare doublings stay
					// far below one allocation per round trip.
					if got/rounds != 0 || (!reliable && got != 0) {
						t.Errorf("%d allocations over %d round trips, want 0", got, rounds)
					}
				})
			}
		}
	}
}

// scheduledAllocs runs warmRounds and then hostcount.Attempts × rounds
// calls of start+WaitColl on procs ranks and returns the allocations of
// the fewest-allocating measurement, per call per rank, to the nearest
// whole number: the other ranks' calls straddle the measurement's
// edges.
func scheduledAllocs(t *testing.T, procs int, algo coll.Algo, start func(r *mpi.Rank) *mpi.CollRequest) float64 {
	t.Helper()
	var allocs uint64
	cluster.Run(cluster.Config{Procs: procs, MPI: mpi.Config{CollAlgo: algo}}, func(r *mpi.Rank) {
		call := func() { r.WaitColl(start(r)) }
		for i := 0; i < warmRounds; i++ {
			call()
		}
		if r.ID() != 0 {
			for i := 0; i < hostcount.Attempts*rounds; i++ {
				call()
			}
			return
		}
		allocs = hostcount.Mallocs(func() {
			for i := 0; i < rounds; i++ {
				call()
			}
		})
	})
	per := float64(allocs) / (rounds * float64(procs))
	t.Logf("%d allocations over %d calls on %d ranks: %.3f per call per rank", allocs, rounds, procs, per)
	return per
}

// One scheduled Iallreduce allocates its handle and nothing else: the
// schedule and its label are the rank's memo, the action state comes
// back to the rank when the schedule completes, and so do the send and
// receive requests of its actions.
func TestScheduledIallreduceRecyclesRequests(t *testing.T) {
	for _, algo := range []coll.Algo{coll.Auto, coll.Binomial, coll.Ring, coll.RecDouble} {
		t.Run(algo.String(), func(t *testing.T) {
			if per := scheduledAllocs(t, 4, algo, func(r *mpi.Rank) *mpi.CollRequest { return r.Iallreduce(64 << 10) }); math.Round(per) != 1 {
				t.Errorf("%.2f allocations per Iallreduce per rank, want 1 (the handle)", per)
			}
		})
	}
}

// The same holds for the other schedule shapes: trees, chains, Bruck
// and pairwise exchanges, dissemination and token rings.
func TestScheduledCollectivesAllocateOnlyTheHandle(t *testing.T) {
	for _, op := range []struct {
		name  string
		start func(r *mpi.Rank) *mpi.CollRequest
	}{
		{"Ibcast", func(r *mpi.Rank) *mpi.CollRequest { return r.Ibcast(1, 48<<10) }},
		{"Ialltoall", func(r *mpi.Rank) *mpi.CollRequest { return r.Ialltoall(4 << 10) }},
		{"Ibarrier", func(r *mpi.Rank) *mpi.CollRequest { return r.Ibarrier() }},
	} {
		for _, algo := range []coll.Algo{coll.Auto, coll.Binomial, coll.Ring, coll.RecDouble} {
			t.Run(op.name+"/"+algo.String(), func(t *testing.T) {
				if per := scheduledAllocs(t, 6, algo, op.start); math.Round(per) != 1 {
					t.Errorf("%.2f allocations per %s per rank, want 1 (the handle)", per, op.name)
				}
			})
		}
	}
}

// A completed handle keeps what it reports: its state went back to the
// rank when it completed, and the collectives that reuse that state
// after it do not show through it.
func TestCompletedCollHandleOutlivesItsState(t *testing.T) {
	cluster.Run(cluster.Config{Procs: 4, MPI: mpi.Config{CollAlgo: coll.Ring}}, func(r *mpi.Rank) {
		cr := r.Iallreduce(64 << 10)
		r.WaitColl(cr)
		done, str := cr.Done(), cr.String()
		if cr.HoldsState() {
			t.Errorf("rank %d: the completed handle still holds its action states", r.ID())
		}
		if r.SpareStates() != 1 {
			t.Errorf("rank %d: %d action states on the free list after one collective, want 1", r.ID(), r.SpareStates())
		}
		for i := 0; i < 10; i++ {
			a, b := r.Iallreduce(64<<10), r.Ibcast(0, 8<<10)
			r.Compute(10 * time.Microsecond)
			r.WaitColl(b)
			r.WaitColl(a)
		}
		if !done || cr.Done() != done || cr.String() != str {
			t.Errorf("rank %d: handle read done=%v %q when it completed, done=%v %q after later collectives",
				r.ID(), done, str, cr.Done(), cr.String())
		}
		if want := "Iallreduce[ring](seq=0 15/15 done=true)"; str != want {
			t.Errorf("rank %d: completed handle reads %q, want %q", r.ID(), str, want)
		}
	})
}

// An epoch cut abandons the collectives in flight: their action states
// may still be named by requests of the failed epoch, so none of them
// returns to the free list.
func TestEpochCutKeepsPendingStateOffTheFreeList(t *testing.T) {
	_, err := cluster.RunE(cluster.Config{
		Procs:    2,
		MPI:      mpi.Config{FT: &mpi.FTConfig{}, Reliable: &fabric.ReliableParams{}},
		Deadline: time.Second,
	}, func(r *mpi.Rank) {
		r.WaitColl(r.Ibarrier())
		if r.SpareStates() != 1 {
			t.Errorf("rank %d: %d action states on the free list after one collective, want 1", r.ID(), r.SpareStates())
		}
		if r.ID() != 0 {
			return
		}
		pending := r.Iallreduce(64 << 10) // rank 1 never joins it
		r.EpochCut()
		if n := r.SpareStates(); n != 0 {
			t.Errorf("%d action states on the free list after the cut, want 0: the pending Iallreduce took the only one and keeps it", n)
		}
		if pending.Done() {
			t.Error("the abandoned Iallreduce reads done")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A one-rank world's schedules are empty, but for alltoall's self copy:
// the call completes at once and takes no action state.
func TestEmptyScheduleTakesNoState(t *testing.T) {
	cluster.Run(cluster.Config{Procs: 1}, func(r *mpi.Rank) {
		r.WaitColl(r.Ialltoall(1 << 10)) // one Copy: leaves one state on the list
		for _, cr := range []*mpi.CollRequest{r.Ibcast(0, 1<<10), r.Ireduce(0, 1<<10), r.Iallreduce(1 << 10), r.Ibarrier()} {
			if !cr.Done() {
				t.Errorf("%v not done at return", cr)
			}
		}
		if n := r.SpareStates(); n != 1 {
			t.Errorf("%d action states on the free list, want alltoall's 1: an empty schedule took or returned state", n)
		}
	})
}

// A request handed back to its rank panics on any use: whoever still
// held it would otherwise drive the operation it is handed out for
// next.
func TestReleasedRequestPanics(t *testing.T) {
	cluster.Run(cluster.Config{Procs: 2}, func(r *mpi.Rank) {
		if r.ID() == 1 {
			r.Recv(0, 0)
			return
		}
		q := r.ReleasedRequest(1)
		const want = "mpi: use of released request"
		expectPanic(t, want, func() { q.Status() })
		expectPanic(t, want, func() { mpi.CompleteRequest(q) })
		expectPanic(t, want, func() { r.Wait(q) })
		expectPanic(t, want, func() { r.Test(q) })
		if n := r.SpareRequests(); n != 1 {
			t.Errorf("%d requests on the spare list, want the one released", n)
		}
	})
}

// The handles Isend and Irecv return are the caller's: they are never
// recycled, so their status stays readable after Wait, however many
// requests the rank recycles afterwards.
func TestUserHandleOutlivesRecycling(t *testing.T) {
	cluster.Run(cluster.Config{Procs: 2}, func(r *mpi.Rank) {
		peer := 1 - r.ID()
		s := r.Isend(peer, 3, 100)
		q := r.Irecv(peer, 3)
		r.Wait(s)
		want := r.Wait(q)
		for i := 0; i < 50; i++ {
			r.Sendrecv(peer, 4, 8, peer, 4)
			if r.ID() == 0 {
				r.Send(peer, 5, 16<<10)
			} else {
				r.Recv(peer, 5)
			}
			r.Barrier()
		}
		if r.SpareRequests() == 0 {
			t.Error("no request was recycled: the handles were not put to the test")
		}
		if got := s.Status(); got != (mpi.Status{Source: peer, Tag: 3, Size: 100}) {
			t.Errorf("Isend status %+v after later calls, want source %d tag 3 size 100", got, peer)
		}
		if got := q.Status(); got != want || got != (mpi.Status{Source: peer, Tag: 3, Size: 100}) {
			t.Errorf("Irecv status %+v after later calls, Wait returned %+v", got, want)
		}
	})
}
