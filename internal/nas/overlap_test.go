package nas

import (
	"testing"

	"ovlp/internal/cluster"
	"ovlp/internal/mpi"
	"ovlp/internal/progress"
)

// Tests for the overlapped-collective benchmark variants: they must
// complete under every progress mode, and with an asynchronous
// progress thread the instrumentation must certify more overlap than
// the corresponding blocking code achieves.

// overlapped runs the overlapped-collective variant of a benchmark on
// four ranks, instrumented, its collectives advanced by mode.
func overlapped(name string, class Class, proto mpi.LongProtocol, iters int, mode progress.Mode) cluster.Result {
	return cluster.Run(cluster.Config{
		Procs: 4,
		MPI: mpi.Config{
			Protocol:   proto,
			Instrument: &mpi.InstrumentConfig{},
			Progress:   progress.Config{Mode: mode},
		},
	}, func(r *mpi.Rank) {
		Run(name, r, Params{Class: class, MaxIters: iters, Overlap: true})
	})
}

func TestOverlappedVariantsComplete(t *testing.T) {
	for _, name := range []string{CG, FT, MG} {
		for _, mode := range []progress.Mode{progress.Manual, progress.Piggyback, progress.Thread} {
			res := overlapped(name, ClassS, mpi.PipelinedRDMA, 2, mode)
			if res.Duration <= 0 {
				t.Errorf("%s overlapped (%v): no virtual time elapsed", name, mode)
			}
			if res.Reports[0].Total().Count == 0 {
				t.Errorf("%s overlapped (%v): no transfers observed", name, mode)
			}
		}
	}
}

func TestOverlappedCGBeatsBlockingMinBound(t *testing.T) {
	// The blocking CG reductions are synchronous ladders — every
	// transfer completes inside the call that posted it, so the
	// certified minimum overlap of the reduction traffic is ~0. The
	// overlapped variant with a progress thread advances the allreduce
	// schedule during the vector updates, which the monitor must see
	// as a strictly higher whole-run minimum bound.
	blocking := characterize(CG, ClassW, 4, mpi.PipelinedRDMA, probeIters)
	ov := overlapped(CG, ClassW, mpi.PipelinedRDMA, probeIters, progress.Thread).Reports[0].Total()
	if ov.MinPercent() <= blocking.MinPct {
		t.Errorf("overlapped CG min bound %.1f%% not above blocking %.1f%%",
			ov.MinPercent(), blocking.MinPct)
	}
}

func TestOverlappedFTReducesNonOverlap(t *testing.T) {
	// FT's transpose dominates its communication; pipelining the two
	// slab halves must recover measurable overlap where the blocking
	// transpose has essentially none (paper Fig. 13).
	rep, _ := CharacterizeAllReports(FT, ClassS, 4, Options{
		Protocol: mpi.DirectRDMARead,
		MaxIters: probeIters,
	})
	ov := overlapped(FT, ClassS, mpi.DirectRDMARead, probeIters, progress.Thread)
	if got, base := ov.Reports[0].Total().MaxOverlapped, rep[0].Total().MaxOverlapped; got <= base {
		t.Errorf("overlapped FT max overlap %v not above blocking %v", got, base)
	}
}
