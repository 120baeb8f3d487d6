package nas

import (
	"testing"

	"ovlp/internal/mpi"
	"ovlp/internal/progress"
)

// Tests for the overlapped-collective benchmark variants: they must
// complete under every progress mode, and with an asynchronous
// progress thread the instrumentation must certify more overlap than
// the corresponding blocking code achieves.

func TestOverlappedVariantsComplete(t *testing.T) {
	for _, name := range []string{CG, FT, MG} {
		for _, mode := range []progress.Mode{progress.Manual, progress.Piggyback, progress.Thread} {
			opt := Options{
				Protocol: mpi.PipelinedRDMA,
				MaxIters: 2,
				Overlap:  true,
				Progress: progress.Config{Mode: mode},
			}
			_, res := CharacterizeAllReports(name, ClassS, 4, opt)
			if res.Duration <= 0 {
				t.Errorf("%s overlapped (%v): no virtual time elapsed", name, mode)
			}
			if res.Transfers == 0 {
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
	_, overlapped := CharacterizeAllReports(CG, ClassW, 4, Options{
		Protocol: mpi.PipelinedRDMA,
		MaxIters: probeIters,
		Overlap:  true,
		Progress: progress.Config{Mode: progress.Thread},
	})
	if overlapped.MinPct <= blocking.MinPct {
		t.Errorf("overlapped CG min bound %.1f%% not above blocking %.1f%%",
			overlapped.MinPct, blocking.MinPct)
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
	repOv, _ := CharacterizeAllReports(FT, ClassS, 4, Options{
		Protocol: mpi.DirectRDMARead,
		MaxIters: probeIters,
		Overlap:  true,
		Progress: progress.Config{Mode: progress.Thread},
	})
	if got, base := repOv[0].Total().MaxOverlapped, rep[0].Total().MaxOverlapped; got <= base {
		t.Errorf("overlapped FT max overlap %v not above blocking %v", got, base)
	}
}
