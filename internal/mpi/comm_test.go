package mpi_test

import (
	"errors"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/vtime"
)

func TestWorldCommMirrorsWorld(t *testing.T) {
	cluster.Run(cluster.Config{Procs: 4}, func(r *mpi.Rank) {
		w := r.World()
		if w.Rank() != r.ID() || w.Size() != r.Size() {
			t.Errorf("world comm rank/size %d/%d != %d/%d", w.Rank(), w.Size(), r.ID(), r.Size())
		}
		w.Barrier()
		r.Barrier() // interleaving with rank-level collectives is safe
		w.Allreduce(8)
	})
}

// onShrunk runs body on the survivors' communicator of a procs-rank
// run whose world rank 0 crashes: every rank runs barriers until the
// failure is raised, then agrees, cuts the epoch and shrinks. World
// rank w is communicator rank w-1 on the survivors.
func onShrunk(t *testing.T, procs int, body func(r *mpi.Rank, c *mpi.Comm)) {
	t.Helper()
	_, err := cluster.RunE(cluster.Config{
		Procs:    procs,
		MPI:      mpi.Config{FT: &mpi.FTConfig{}, Reliable: &fabric.ReliableParams{}},
		Crashes:  &fabric.CrashPlan{Crashes: []fabric.Crash{{Node: 0, At: vtime.Time(100 * time.Microsecond)}}},
		Deadline: time.Second,
	}, func(r *mpi.Rank) {
		for r.Protect(func() {
			for {
				r.Barrier()
				r.Compute(50 * time.Microsecond)
			}
		}) == nil {
		}
		r.Agree(0, false)
		r.EpochCut()
		c := r.Shrink()
		if c.Size() != procs-1 || c.Rank() != r.ID()-1 {
			t.Errorf("rank %d: shrunk comm rank/size %d/%d, want %d/%d", r.ID(), c.Rank(), c.Size(), r.ID()-1, procs-1)
		}
		body(r, c)
	})
	var re *cluster.RunErrors
	if !errors.As(err, &re) || re.Sim != nil || len(re.Ranks) != 1 || re.Ranks[0].Rank != 0 {
		t.Fatalf("want only the crashed rank 0 to fail, got %v", err)
	}
}

func TestCommPointToPointIsolatedFromWorld(t *testing.T) {
	// The same (peer, tag) on a communicator and on the world must
	// match independently. (A request's status stays in world terms;
	// Sendrecv translates, see TestCommSendrecvAndNonblocking.)
	onShrunk(t, 3, func(r *mpi.Rank, c *mpi.Comm) {
		if c.Rank() == 0 {
			s := c.Isend(1, 5, 100) // via comm, to world rank 2
			r.Send(2, 5, 200)       // via world
			r.Waitall(s, c.Isend(1, 6, 8))
			return
		}
		// Receive the world one first, then the comm one: tags isolate
		// them even though both used tag 5.
		if st := r.Recv(1, 5); st.Size != 200 || st.Source != 1 {
			t.Errorf("world recv got %+v, want size 200 from world rank 1", st)
		}
		if st := r.Wait(c.Irecv(0, 5)); st.Size != 100 || st.Source != 1 {
			t.Errorf("comm recv got %+v, want size 100 from world rank 1", st)
		}
		if st := r.Wait(c.Irecv(mpi.AnySource, mpi.AnyTag)); st.Size != 8 || st.Source != 1 {
			t.Errorf("wildcard comm recv got %+v, want size 8 from world rank 1", st)
		}
	})
}

func TestCommSendrecvAndNonblocking(t *testing.T) {
	onShrunk(t, 5, func(r *mpi.Rank, c *mpi.Comm) {
		peer := c.Rank() ^ 1 // pairs {0,1} {2,3}
		st := c.Sendrecv(peer, 1, 2048, peer, 1)
		if st.Size != 2048 || st.Source != peer {
			t.Errorf("comm sendrecv %+v", st)
		}
		s := c.Isend(peer, 2, 64<<10)
		q := c.Irecv(peer, 2)
		r.Compute(100 * time.Microsecond)
		r.Waitall(s, q)
		c.Allreduce(8)
	})
}

func TestCommTagValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized tag")
		}
	}()
	cluster.Run(cluster.Config{Procs: 2}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.World().Isend(1, 1<<20, 10)
		} else {
			r.World().Irecv(0, 1<<20)
		}
	})
}
