package mpi_test

import (
	"testing"

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

// One scheduled Iallreduce allocates what starting the schedule does —
// the handle, its label and its action slice — and nothing per action:
// the schedule's send and receive requests come back to the rank.
func TestScheduledIallreduceRecyclesRequests(t *testing.T) {
	const procs, startCollAllocs = 4, 3
	for _, algo := range []coll.Algo{coll.Auto, coll.Binomial, coll.Ring, coll.RecDouble} {
		t.Run(algo.String(), func(t *testing.T) {
			var allocs uint64
			cluster.Run(cluster.Config{Procs: procs, MPI: mpi.Config{CollAlgo: algo}}, func(r *mpi.Rank) {
				call := func() { r.WaitColl(r.Iallreduce(64 << 10)) }
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
			// The other ranks' calls straddle the measurement's edges,
			// so the count is per call across the ranks, rounded down.
			if per := allocs / (rounds * procs); per > startCollAllocs {
				t.Errorf("%d allocations over %d Iallreduce on %d ranks: %d per call, want at most %d",
					allocs, rounds, procs, per, startCollAllocs)
			}
		})
	}
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
