package mpi_test

import (
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/mpi"
)

// run executes main on n ranks with the given protocol, instrumented.
func run(t *testing.T, n int, proto mpi.LongProtocol, main func(*mpi.Rank)) cluster.Result {
	t.Helper()
	return cluster.Run(cluster.Config{
		Procs: n,
		MPI: mpi.Config{
			Protocol:   proto,
			Instrument: &mpi.InstrumentConfig{},
		},
		RecordTruth: true,
	}, main)
}

func TestEagerSendRecv(t *testing.T) {
	res := run(t, 2, PipelinedForTest, func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 7, 1024)
		case 1:
			st := r.Recv(0, 7)
			if st.Source != 0 || st.Tag != 7 || st.Size != 1024 {
				t.Errorf("bad status %+v", st)
			}
		}
	})
	if res.Duration <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

const PipelinedForTest = mpi.PipelinedRDMA

func TestRendezvousBothProtocols(t *testing.T) {
	for _, proto := range []mpi.LongProtocol{mpi.PipelinedRDMA, mpi.DirectRDMARead} {
		t.Run(proto.String(), func(t *testing.T) {
			res := run(t, 2, proto, func(r *mpi.Rank) {
				switch r.ID() {
				case 0:
					r.Send(1, 3, 1<<20)
				case 1:
					st := r.Recv(0, 3)
					if st.Size != 1<<20 {
						t.Errorf("recv size %d, want %d", st.Size, 1<<20)
					}
				}
			})
			// 1 MiB at ~900 MB/s is >1.1 ms of wire time.
			if res.Duration < time.Millisecond {
				t.Errorf("1MiB rendezvous finished suspiciously fast: %v", res.Duration)
			}
		})
	}
}

func TestUnexpectedMessageBuffered(t *testing.T) {
	run(t, 2, mpi.DirectRDMARead, func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, 512)
			r.Send(1, 2, 256<<10) // rendezvous, unexpected
		case 1:
			r.Compute(5 * time.Millisecond) // both messages arrive first
			if st := r.Recv(0, 2); st.Size != 256<<10 {
				t.Errorf("tag 2 size = %d", st.Size)
			}
			if st := r.Recv(0, 1); st.Size != 512 {
				t.Errorf("tag 1 size = %d", st.Size)
			}
		}
	})
}

func TestWildcardRecv(t *testing.T) {
	run(t, 3, mpi.PipelinedRDMA, func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			r.Send(2, 10, 64)
		case 1:
			r.Send(2, 11, 64)
		case 2:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				st := r.Recv(mpi.AnySource, mpi.AnyTag)
				got[st.Source] = true
			}
			if !got[0] || !got[1] {
				t.Errorf("wildcard recv missed a sender: %v", got)
			}
		}
	})
}

func TestIsendIrecvWait(t *testing.T) {
	run(t, 2, mpi.DirectRDMARead, func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			q := r.Isend(1, 0, 128<<10)
			r.Compute(2 * time.Millisecond)
			r.Wait(q)
		case 1:
			q := r.Irecv(0, 0)
			r.Compute(2 * time.Millisecond)
			st := r.Wait(q)
			if st.Size != 128<<10 {
				t.Errorf("size = %d", st.Size)
			}
		}
	})
}

func TestMessageOrderingSameEnvelope(t *testing.T) {
	const n = 20
	run(t, 2, mpi.PipelinedRDMA, func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < n; i++ {
				r.Send(1, 5, 100+i) // distinguish by size
			}
		case 1:
			for i := 0; i < n; i++ {
				st := r.Recv(0, 5)
				if st.Size != 100+i {
					t.Fatalf("message %d out of order: size %d", i, st.Size)
				}
			}
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	run(t, 2, mpi.PipelinedRDMA, func(r *mpi.Rank) {
		peer := 1 - r.ID()
		st := r.Sendrecv(peer, 0, 4096, peer, 0)
		if st.Size != 4096 || st.Source != peer {
			t.Errorf("sendrecv status %+v", st)
		}
	})
}

func TestIprobe(t *testing.T) {
	run(t, 2, mpi.PipelinedRDMA, func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			r.Compute(time.Millisecond)
			r.Send(1, 9, 2048)
		case 1:
			if r.Iprobe(0, 9) {
				t.Error("Iprobe true before any send")
			}
			for !r.Iprobe(0, 9) {
				r.Compute(50 * time.Microsecond)
			}
			if r.Iprobe(0, 8) {
				t.Error("Iprobe matched the wrong tag")
			}
			if st := r.Recv(0, 9); st.Size != 2048 {
				t.Errorf("recv size %d", st.Size)
			}
		}
	})
}

func TestCollectivesComplete(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		res := run(t, n, mpi.PipelinedRDMA, func(r *mpi.Rank) {
			r.Barrier()
			r.Bcast(0, 4096)
			r.Reduce(0, 4096)
			r.Allreduce(8)
			r.Alltoall(1024)
			r.Alltoallv(make([]int, n))
			r.Barrier()
		})
		if res.Duration <= 0 {
			t.Fatalf("n=%d: no time elapsed", n)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var after [3]time.Duration
	run(t, 3, mpi.PipelinedRDMA, func(r *mpi.Rank) {
		// Rank 2 is slow; nobody may leave before it arrives.
		if r.ID() == 2 {
			r.Compute(10 * time.Millisecond)
		}
		r.Barrier()
		after[r.ID()] = r.Now()
	})
	for i, ts := range after {
		if ts < 10*time.Millisecond {
			t.Errorf("rank %d left the barrier at %v, before the slow rank arrived", i, ts)
		}
	}
}

func TestAlltoallvAsymmetricSizes(t *testing.T) {
	run(t, 4, mpi.PipelinedRDMA, func(r *mpi.Rank) {
		sizes := make([]int, 4)
		for i := range sizes {
			sizes[i] = 1024 * (i + 1)
		}
		r.Alltoallv(sizes)
	})
}

func TestDeterministicRuns(t *testing.T) {
	one := run(t, 4, mpi.DirectRDMARead, exerciseAll)
	two := run(t, 4, mpi.DirectRDMARead, exerciseAll)
	if one.Duration != two.Duration {
		t.Fatalf("durations differ: %v vs %v", one.Duration, two.Duration)
	}
	for i := range one.MPITimes {
		if one.MPITimes[i] != two.MPITimes[i] {
			t.Fatalf("rank %d MPI time differs: %v vs %v", i, one.MPITimes[i], two.MPITimes[i])
		}
	}
}

func exerciseAll(r *mpi.Rank) {
	peer := r.ID() ^ 1
	q := r.Isend(peer, 0, 64<<10)
	p := r.Irecv(peer, 0)
	r.Compute(time.Millisecond)
	r.Waitall(q, p)
	r.Allreduce(8)
	r.Barrier()
}

func TestMPITimeAccounted(t *testing.T) {
	res := run(t, 2, mpi.PipelinedRDMA, func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			r.Compute(5 * time.Millisecond)
			r.Send(1, 0, 64)
		case 1:
			r.Recv(0, 0) // waits ~5ms for the sender
		}
	})
	if res.MPITimes[1] < 4*time.Millisecond {
		t.Errorf("rank 1 MPI (wait) time %v, want >=4ms", res.MPITimes[1])
	}
	if res.MPITimes[0] > time.Millisecond {
		t.Errorf("rank 0 MPI time %v, want well under 1ms", res.MPITimes[0])
	}
}

func TestGroundTruthRecorded(t *testing.T) {
	res := run(t, 2, mpi.DirectRDMARead, func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, 1<<20)
		case 1:
			r.Recv(0, 0)
		}
	})
	var found bool
	for _, tr := range res.Transfers {
		if tr.Size == 1<<20 {
			found = true
			if tr.End <= tr.Start {
				t.Errorf("transfer interval inverted: %+v", tr)
			}
		}
	}
	if !found {
		t.Fatal("1MiB transfer missing from ground truth")
	}
}

func TestCallTimesBreakdown(t *testing.T) {
	var calls map[string]time.Duration
	run(t, 2, mpi.DirectRDMARead, func(r *mpi.Rank) {
		if r.ID() == 0 {
			q := r.Isend(1, 0, 1<<20)
			r.Wait(q)
			r.Barrier()
			calls = r.CallTimes()
			return
		}
		r.Compute(2 * time.Millisecond)
		r.Recv(0, 0)
		r.Barrier()
	})
	if calls["Wait"] < time.Millisecond {
		t.Errorf("Wait time %v, want the bulk of the rendezvous", calls["Wait"])
	}
	for _, op := range []string{"Isend", "Barrier"} {
		if _, ok := calls[op]; !ok {
			t.Errorf("missing %s in call-time breakdown: %v", op, calls)
		}
	}
	if _, ok := calls["Recv"]; ok {
		t.Errorf("rank 0 never called Recv, but it appears: %v", calls)
	}
}
