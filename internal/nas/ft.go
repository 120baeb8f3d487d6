package nas

import (
	"math"

	"ovlp/internal/mpi"
)

// FT — 3-D FFT PDE solver using the transpose algorithm with a 1-D
// (slab) decomposition.
//
// Nearly all of FT's communication is the Alltoall that implements the
// distributed transpose between the local FFT passes, moving long
// messages with no interleaved computation — which is why the paper
// measures little overlap for FT (Fig. 13); the small residue comes
// from the short messages in the checksum Reduce and setup Bcast.

type ftSpec struct {
	nx, ny, nz int
	iters      int
}

var ftSpecs = map[Class]ftSpec{
	ClassS: {64, 64, 64, 6},
	ClassW: {128, 128, 32, 6},
	ClassA: {256, 256, 128, 6},
	ClassB: {512, 256, 256, 20},
}

// complexBytes is the size of a double-precision complex value.
const complexBytes = 16

// RunFT executes the FT skeleton on the calling rank.
func RunFT(r *mpi.Rank, p Params) {
	p.fill()
	mustFit(FT, p.Class, r.Size())
	spec := ftSpecs[p.Class]
	procs := r.Size()
	total := spec.nx * spec.ny * spec.nz
	local := float64(total) / float64(procs)

	// Per-pair transpose block: the local slab sliced P ways.
	blockBytes := total * complexBytes / (procs * procs)
	if blockBytes == 0 {
		blockBytes = complexBytes
	}
	// One 3-D FFT costs ~5 N log2 N flops, split around the transpose.
	fftFlops := 5 * float64(total) * math.Log2(float64(total)) / float64(procs)

	// fftTranspose is one FFT + distributed transpose + FFT sequence:
	// pre flops of local passes, the alltoall, then post flops on the
	// transposed data. The overlapped variant splits the slab in half
	// and pipelines: each half's transpose is in flight while the other
	// half's FFT passes run, so the two nonblocking alltoalls overlap
	// computation (and, briefly, each other).
	fftTranspose := func(pre, post float64) {
		if !p.Overlap {
			r.Compute(flopTime(pre))
			r.Alltoall(blockBytes)
			r.Compute(flopTime(post))
			return
		}
		halfA := blockBytes / 2
		halfB := blockBytes - halfA
		r.Compute(flopTime(pre / 2))
		crA := r.Ialltoall(halfA)
		r.Compute(flopTime(pre / 2))
		crB := r.Ialltoall(halfB)
		r.WaitColl(crA)
		r.Compute(flopTime(post / 2))
		r.WaitColl(crB)
		r.Compute(flopTime(post / 2))
	}

	r.Bcast(0, 3*doubleBytes)       // problem parameters
	r.Compute(flopTime(30 * local)) // compute_indexmap + initial conditions
	// Forward FFT: local dimensions, transpose, remaining dimension.
	fftTranspose(fftFlops*2/3, fftFlops*1/3)

	iters := p.iters(spec.iters)
	for it := 0; it < iters; it++ {
		r.Compute(flopTime(6 * local)) // evolve
		// Inverse FFT: local dims, transpose, last dim.
		fftTranspose(fftFlops*2/3, fftFlops*1/3)
		r.Compute(flopTime(10 * local / float64(procs)))
		r.Reduce(0, complexBytes) // checksum
		r.Bcast(0, complexBytes)
	}
	r.Barrier()
}
