package mpi_test

import (
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/mpi"
)

// Protocol edge cases and library semantics beyond the basic smoke
// tests in mpi_test.go.

func TestEagerThresholdBoundary(t *testing.T) {
	// size == threshold goes eager (one wire transfer); threshold+1
	// goes rendezvous, which under the pipelined protocol splits into
	// the first fragment plus the remainder. Either way the data bytes
	// on the wire equal the message size exactly (headers are out of
	// band).
	for _, tc := range []struct {
		size          int
		wantTransfers int
	}{
		{12 << 10, 1},
		{12<<10 + 1, 2},
	} {
		res := cluster.Run(cluster.Config{
			Procs:       2,
			MPI:         mpi.Config{Protocol: mpi.PipelinedRDMA},
			RecordTruth: true,
		}, func(r *mpi.Rank) {
			if r.ID() == 0 {
				r.Send(1, 0, tc.size)
			} else {
				r.Recv(0, 0)
			}
		})
		if len(res.Transfers) != tc.wantTransfers {
			t.Errorf("size %d: %d wire transfers, want %d",
				tc.size, len(res.Transfers), tc.wantTransfers)
		}
		var bytes int
		for _, tr := range res.Transfers {
			bytes += tr.Size
		}
		if bytes != tc.size {
			t.Errorf("size %d: %d bytes on the wire", tc.size, bytes)
		}
	}
}

func TestPipelinedFragmentation(t *testing.T) {
	// 1 MiB with 64 KiB fragments and a 12 KiB first fragment: the
	// ground truth must show 1 frag0 + ceil((1MiB-12KiB)/64KiB) bulk
	// fragments.
	res := cluster.Run(cluster.Config{
		Procs:       2,
		MPI:         mpi.Config{Protocol: mpi.PipelinedRDMA},
		RecordTruth: true,
	}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 1<<20)
		} else {
			r.Recv(0, 0)
		}
	})
	frag0 := 12 << 10
	bulk := (1<<20 - frag0 + 64<<10 - 1) / (64 << 10)
	if want := 1 + bulk; len(res.Transfers) != want {
		t.Fatalf("%d transfers on the wire, want %d", len(res.Transfers), want)
	}
	var total int
	for _, tr := range res.Transfers {
		total += tr.Size
	}
	if total != 1<<20 {
		t.Fatalf("moved %d bytes, want %d", total, 1<<20)
	}
}

func TestPipelinedCreditLimit(t *testing.T) {
	// With MaxOutstanding=2 and 64 KiB fragments, no more than 2 bulk
	// fragments may be in flight from one NIC at any instant — visible
	// as at most 2 overlapping wire intervals.
	res := cluster.Run(cluster.Config{
		Procs: 2,
		MPI: mpi.Config{
			Protocol:       mpi.PipelinedRDMA,
			MaxOutstanding: 2,
		},
		RecordTruth: true,
	}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 1<<20)
		} else {
			r.Recv(0, 0)
		}
	})
	for i, a := range res.Transfers {
		overlapping := 0
		for j, b := range res.Transfers {
			if i != j && a.Start < b.End && b.Start < a.End {
				overlapping++
			}
		}
		if overlapping > 2 {
			t.Fatalf("transfer %d overlaps %d others; credit limit is 2", i, overlapping)
		}
	}
}

func TestDirectReadMovesExactlyOneTransfer(t *testing.T) {
	res := cluster.Run(cluster.Config{
		Procs:       2,
		MPI:         mpi.Config{Protocol: mpi.DirectRDMARead},
		RecordTruth: true,
	}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 1<<20)
		} else {
			r.Recv(0, 0)
		}
	})
	if len(res.Transfers) != 1 {
		t.Fatalf("%d transfers, want 1 (single zero-copy read)", len(res.Transfers))
	}
	tr := res.Transfers[0]
	if tr.Src != 0 || tr.Dst != 1 || tr.Size != 1<<20 {
		t.Fatalf("wrong transfer %+v", tr)
	}
}

func TestZeroByteMessage(t *testing.T) {
	cluster.Run(cluster.Config{Procs: 2}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 0)
		} else {
			st := r.Recv(0, 0)
			if st.Size != 0 {
				t.Errorf("zero-byte recv size %d", st.Size)
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	cluster.Run(cluster.Config{Procs: 1}, func(r *mpi.Rank) {
		q := r.Isend(0, 7, 4096)
		st := r.Recv(0, 7)
		if st.Size != 4096 {
			t.Errorf("self recv size %d", st.Size)
		}
		r.Wait(q)
	})
}

func TestIprobeEnablesEarlyRendezvousRead(t *testing.T) {
	// The paper's SP mechanism in miniature: with Irecv posted and the
	// RTS arriving during computation, a single Iprobe lets the direct
	// protocol start the read early, cutting the receiver's wait.
	wait := func(probe bool) time.Duration {
		var waited time.Duration
		cluster.Run(cluster.Config{
			Procs: 2,
			MPI:   mpi.Config{Protocol: mpi.DirectRDMARead},
		}, func(r *mpi.Rank) {
			const size = 1 << 20
			if r.ID() == 0 {
				r.Send(1, 0, size)
				return
			}
			q := r.Irecv(0, 0)
			r.Compute(500 * time.Microsecond)
			if probe {
				r.Iprobe(mpi.AnySource, mpi.AnyTag)
			}
			r.Compute(1500 * time.Microsecond)
			t0 := r.Now()
			r.Wait(q)
			waited = r.Now() - t0
		})
		return waited
	}
	without, with := wait(false), wait(true)
	if with >= without/5 {
		t.Errorf("Iprobe should collapse the wait: %v -> %v", without, with)
	}
}

func TestTestEventuallyCompletes(t *testing.T) {
	cluster.Run(cluster.Config{Procs: 2}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 64<<10)
			return
		}
		q := r.Irecv(0, 0)
		spins := 0
		for !r.Test(q) {
			r.Compute(50 * time.Microsecond)
			spins++
			if spins > 10000 {
				t.Fatal("Test never completed the request")
			}
		}
		if q.Status().Size != 64<<10 {
			t.Errorf("status %+v", q.Status())
		}
	})
}

func TestRegistrationCacheSpeedsRepeatedRendezvous(t *testing.T) {
	run := func(pinned bool) time.Duration {
		res := cluster.Run(cluster.Config{
			Procs: 2,
			MPI:   mpi.Config{Protocol: mpi.DirectRDMARead, LeavePinned: pinned},
		}, func(r *mpi.Rank) {
			for i := 0; i < 20; i++ {
				if r.ID() == 0 {
					r.Send(1, 0, 256<<10)
				} else {
					r.Recv(0, 0)
				}
			}
		})
		return res.Duration
	}
	cold, warm := run(false), run(true)
	if warm >= cold {
		t.Errorf("leave_pinned should be faster: %v vs %v", warm, cold)
	}
}

func TestMixedEagerRendezvousOrdering(t *testing.T) {
	// Alternating short (eager) and long (rendezvous) messages on one
	// envelope must still be received in send order.
	sizes := []int{100, 1 << 20, 200, 512 << 10, 300, 64 << 10}
	for _, proto := range []mpi.LongProtocol{mpi.PipelinedRDMA, mpi.DirectRDMARead} {
		cluster.Run(cluster.Config{
			Procs: 2,
			MPI:   mpi.Config{Protocol: proto},
		}, func(r *mpi.Rank) {
			if r.ID() == 0 {
				for _, s := range sizes {
					r.Send(1, 9, s)
				}
				return
			}
			for i, want := range sizes {
				st := r.Recv(0, 9)
				if st.Size != want {
					t.Errorf("%v: message %d has size %d, want %d", proto, i, st.Size, want)
				}
			}
		})
	}
}

func TestManyToOneWildcard(t *testing.T) {
	const senders = 7
	cluster.Run(cluster.Config{Procs: senders + 1}, func(r *mpi.Rank) {
		if r.ID() < senders {
			r.Send(senders, r.ID(), 1000+r.ID())
			return
		}
		seen := map[int]bool{}
		for i := 0; i < senders; i++ {
			st := r.Recv(mpi.AnySource, mpi.AnyTag)
			if seen[st.Source] {
				t.Errorf("duplicate source %d", st.Source)
			}
			seen[st.Source] = true
			if st.Size != 1000+st.Source || st.Tag != st.Source {
				t.Errorf("mismatched status %+v", st)
			}
		}
	})
}

func TestWildcardDoesNotMatchCollectives(t *testing.T) {
	// A wildcard receive posted across a barrier must match the user
	// message, never a collective token.
	cluster.Run(cluster.Config{Procs: 2}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Barrier()
			r.Send(1, 42, 512)
			r.Barrier()
			return
		}
		q := r.Irecv(mpi.AnySource, mpi.AnyTag)
		r.Barrier() // token traffic flows while the wildcard is posted
		st := r.Wait(q)
		if st.Tag != 42 || st.Size != 512 {
			t.Errorf("wildcard matched wrong message: %+v", st)
		}
		r.Barrier()
	})
}

func TestEagerBufferedSendCompletesImmediately(t *testing.T) {
	// A blocking eager Send must not wait for the receiver (buffered
	// fast path): it returns in well under the transfer time.
	var sendTime time.Duration
	cluster.Run(cluster.Config{Procs: 2}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			t0 := r.Now()
			r.Send(1, 0, 8<<10)
			sendTime = r.Now() - t0
			return
		}
		r.Compute(time.Millisecond) // receiver not even looking
		r.Recv(0, 0)
	})
	if sendTime > 50*time.Microsecond {
		t.Errorf("blocking eager Send took %v; should return after copy+post", sendTime)
	}
}

func TestRendezvousSendWaitsForReceiver(t *testing.T) {
	// A blocking rendezvous Send must NOT complete before the receiver
	// participates.
	var sendTime time.Duration
	cluster.Run(cluster.Config{
		Procs: 2,
		MPI:   mpi.Config{Protocol: mpi.DirectRDMARead},
	}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			t0 := r.Now()
			r.Send(1, 0, 1<<20)
			sendTime = r.Now() - t0
			return
		}
		r.Compute(3 * time.Millisecond)
		r.Recv(0, 0)
	})
	if sendTime < 3*time.Millisecond {
		t.Errorf("rendezvous Send returned after %v, before the receiver matched", sendTime)
	}
}
