package mpi_test

import (
	"fmt"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/overlap"
)

// The completion-routing table is a slice of the work requests in
// flight (it was a map keyed by work-request id). What must survive the
// change of container: a completion nobody posted is a bug and panics,
// a completion abandoned at an epoch cut is swallowed exactly once, and
// the table holds the in-flight requests and nothing else.

func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := fmt.Sprint(recover()); got != want {
			t.Errorf("panic = %q, want %q", got, want)
		}
	}()
	f()
}

func TestUnknownCompletionPanics(t *testing.T) {
	cluster.Run(cluster.Config{Procs: 2}, func(r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		r.Send(1, 0, 64) // something real in the table beside the bogus id
		expectPanic(t, "mpi: completion for unknown work request", func() {
			r.HandleCQE(&fabric.CQE{WRID: 1 << 40})
		})
		if n := r.OutstandingWRs(); n != 1 {
			t.Errorf("table holds %d work requests after the bogus completion, want the send's 1", n)
		}
	})
}

func TestStaleCompletionAfterEpochCutIsInert(t *testing.T) {
	_, err := cluster.RunE(cluster.Config{
		Procs:    2,
		MPI:      mpi.Config{FT: &mpi.FTConfig{}, Reliable: &fabric.ReliableParams{}},
		Deadline: time.Second,
	}, func(r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		req, wr := r.PostTrackedRead(1, 4096)
		if n := r.OutstandingWRs(); n != 1 {
			t.Errorf("table holds %d work requests after one post, want 1", n)
		}
		r.EpochCut()
		if table, stale := r.OutstandingWRs(), r.StaleWRs(); table != 0 || stale != 1 {
			t.Errorf("after the cut: table %d, stale %d; want 0, 1", table, stale)
		}
		// The read's completion arrives in the new epoch and is swallowed:
		// the request it belonged to stays incomplete, nothing panics.
		for i := 0; r.StaleWRs() > 0; i++ {
			if i == 100 { // Errorf: rank bodies run off the test goroutine
				t.Errorf("the abandoned read's completion never arrived")
				return
			}
			r.Compute(time.Microsecond)
			r.Iprobe(mpi.AnySource, mpi.AnyTag)
		}
		if r.Test(req) {
			t.Error("a completion abandoned at the epoch cut completed its request")
		}
		// Swallowed once: the same id again is an unknown completion.
		expectPanic(t, "mpi: completion for unknown work request", func() {
			r.HandleCQE(&fabric.CQE{WRID: wr})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// wrSampler reads the table's length at every instrumentation event of
// its rank — tens of thousands of points inside the library, between
// posts and polls.
type wrSampler struct {
	r    *mpi.Rank
	peak int
}

func (s *wrSampler) OverlapEvent(overlap.Event) {
	if s.r != nil {
		s.peak = max(s.peak, s.r.OutstandingWRs())
	}
}

// On NAS LU (class A, 8 ranks: the nas_lu benchmark program) a rank has
// one to three work requests outstanding most of the time and, while a
// pipelined sweep's buffered sends wait to be reaped, up to 130. The
// table must never be longer than that — no tombstones, no rows left
// behind — and must be empty once everything posted has completed.
func TestWRTableHoldsOnlyInFlightRequestsOnLU(t *testing.T) {
	const procs, luPeak = 8, 130
	samplers := make([]wrSampler, procs)
	cluster.Run(cluster.Config{
		Procs: procs,
		MPI: mpi.Config{Protocol: mpi.DirectRDMARead, Instrument: &mpi.InstrumentConfig{
			SinkFor: func(rank int) overlap.Sink { return &samplers[rank] },
		}},
	}, func(r *mpi.Rank) {
		s := &samplers[r.ID()]
		s.r = r
		nas.Run(nas.LU, r, nas.Params{Class: nas.ClassA, MaxIters: 3})
		// Reap what the last sweep left buffered: every completion is
		// at most one barrier and a poll away.
		r.Barrier()
		r.Compute(100 * time.Microsecond)
		r.Iprobe(mpi.AnySource, mpi.AnyTag)
		if n := r.OutstandingWRs(); n != 0 {
			t.Errorf("rank %d: %d work requests still in the table after everything completed", r.ID(), n)
		}
		s.r = nil
	})
	peak := 0
	for _, s := range samplers {
		peak = max(peak, s.peak)
	}
	t.Logf("peak table length over %d ranks: %d", procs, peak)
	if peak == 0 || peak > luPeak {
		t.Errorf("peak table length %d, want within (0, %d]: LU never has more in flight", peak, luPeak)
	}
}
