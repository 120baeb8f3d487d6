package trace_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/trace"
)

// tracedExchange runs a traced, instrumented exchange on a lossy link —
// long enough for the host and NIC tracks to spill — and returns the
// exported trace, its tracer released.
func tracedExchange(seed int64) []byte {
	tr := trace.New(trace.Options{})
	cluster.Run(cluster.Config{
		Procs:  2,
		MPI:    mpi.Config{Protocol: mpi.DirectRDMARead, Instrument: &mpi.InstrumentConfig{}},
		Faults: &fabric.FaultPlan{Seed: seed, Default: fabric.LinkFaults{DropRate: 0.05}},
		Trace:  tr,
	}, func(r *mpi.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < 150; i++ {
			s := r.Isend(peer, 0, 64<<10)
			q := r.Irecv(peer, 0)
			r.Compute(100 * time.Microsecond)
			r.Waitall(s, q)
		}
	})
	out := tr.AppendChrome(nil)
	tr.Release()
	return out
}

// TestParallelRunsShareRings is for the race detector: whole cluster
// runs on concurrent goroutines trade rings and flats through the free
// lists, each drawing what another just drained or released, and every
// one must still export the bytes it exports alone.
func TestParallelRunsShareRings(t *testing.T) {
	var want [4][]byte
	for seed := range want {
		want[seed] = tracedExchange(int64(seed))
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("seeds do not change the trace — weak fixture")
	}
	for i := 0; i < 8; i++ {
		seed := i % len(want)
		t.Run(fmt.Sprintf("run%d-seed%d", i, seed), func(t *testing.T) {
			t.Parallel()
			for rep := 0; rep < 2; rep++ {
				if got := tracedExchange(int64(seed)); !bytes.Equal(got, want[seed]) {
					t.Fatalf("rep %d exported %d bytes that differ from the serial run's %d", rep, len(got), len(want[seed]))
				}
			}
		})
	}
}
