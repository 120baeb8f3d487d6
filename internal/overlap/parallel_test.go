package overlap_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
)

// instrumentedExchange runs an instrumented 4-rank ring exchange whose
// monitors each wrap their queue, and returns the per-rank reports.
func instrumentedExchange(size int) []*overlap.Report {
	res := cluster.Run(cluster.Config{
		Procs: 4,
		MPI:   mpi.Config{Instrument: &mpi.InstrumentConfig{QueueSize: 256}},
	}, func(r *mpi.Rank) {
		next, prev := (r.ID()+1)%4, (r.ID()+3)%4
		for i := 0; i < 200; i++ {
			s := r.Isend(next, 0, size)
			q := r.Irecv(prev, 0)
			r.Compute(50 * time.Microsecond)
			r.Waitall(s, q)
		}
	})
	return res.Reports
}

// TestParallelRunsShareQueues is for the race detector: whole cluster
// runs on concurrent goroutines hand monitor queues to one another
// through the one free list, and each must still produce the reports it
// produces alone.
func TestParallelRunsShareQueues(t *testing.T) {
	sizes := []int{1 << 10, 32 << 10, 256 << 10}
	want := make([][]*overlap.Report, len(sizes))
	for i, size := range sizes {
		want[i] = instrumentedExchange(size)
	}
	if reflect.DeepEqual(want[0], want[2]) {
		t.Fatal("message size does not change the reports — weak fixture")
	}
	for i := 0; i < 9; i++ {
		k := i % len(sizes)
		t.Run(fmt.Sprintf("run%d-%dB", i, sizes[k]), func(t *testing.T) {
			t.Parallel()
			for rep := 0; rep < 2; rep++ {
				if got := instrumentedExchange(sizes[k]); !reflect.DeepEqual(got, want[k]) {
					t.Fatalf("rep %d: reports differ from the serial run's", rep)
				}
			}
		})
	}
}
