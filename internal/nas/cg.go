package nas

import "ovlp/internal/mpi"

// CG — conjugate gradient with an irregular sparse matrix-vector
// product, on a 2-D (nprows x npcols) power-of-two process grid.
//
// Per CG iteration (25 inner iterations per outer power-method step):
// the local sparse matvec is followed by a log(npcols)-step pairwise
// sum-reduction of partial vectors across the process row, an exchange
// with the transpose partner, and two scalar dot-product reductions
// done with 8-byte pairwise exchanges. The mix is mid-sized vector
// segments plus many tiny messages — a larger share of short messages
// than BT, which is why the paper measures higher overlap for CG
// (Fig. 11).

type cgSpec struct {
	n      int
	nonzer int
	iters  int // outer power-method iterations
}

var cgSpecs = map[Class]cgSpec{
	ClassS: {1400, 7, 15},
	ClassW: {7000, 8, 15},
	ClassA: {14000, 11, 15},
	ClassB: {75000, 13, 75},
}

const cgInnerIters = 25

// RunCG executes the CG skeleton on the calling rank. The number of
// ranks must be a power of two.
func RunCG(r *mpi.Rank, p Params) {
	p.fill()
	mustFit(CG, p.Class, r.Size())
	spec := cgSpecs[p.Class]
	procs := r.Size()
	// npcols >= nprows, both powers of two (NPB's setup).
	k := log2(procs)
	nprows := 1 << (k / 2)
	npcols := procs / nprows
	procRow := r.ID() / npcols
	procCol := r.ID() % npcols
	l2npcols := log2(npcols)

	// Estimated nonzeros of the full matrix and the per-process share.
	nnz := float64(spec.n) * float64(spec.nonzer+1) * float64(spec.nonzer+2)
	localMatvec := flopTime(2 * nnz / float64(procs))
	localVec := flopTime(12 * float64(spec.n/nprows))

	segBytes := doubleBytes * ceilDiv(spec.n, npcols)

	// Transpose partner for the matvec's distributed transpose; with a
	// rectangular grid the halves pair across the midpoint.
	transpose := procCol*npcols + procRow
	if nprows != npcols {
		transpose = (r.ID() + procs/2) % procs
	}

	const tagSum, tagTr, tagDot = 600, 610, 620

	r.Bcast(0, 2*doubleBytes)
	iters := p.iters(spec.iters)
	for outer := 0; outer < iters; outer++ {
		for inner := 0; inner < cgInnerIters; inner++ {
			// q = A.p: local matvec then row-wise partial-vector sum.
			r.Compute(localMatvec)
			for i := 0; i < l2npcols; i++ {
				partner := procRow*npcols + (procCol ^ (1 << i))
				r.Sendrecv(partner, tagSum+i, segBytes, partner, tagSum+i)
				r.Compute(flopTime(float64(segBytes / doubleBytes)))
			}
			// Distributed transpose of q.
			if transpose != r.ID() {
				r.Sendrecv(transpose, tagTr, segBytes, transpose, tagTr)
			}
			// Two dot products, plus the local vector updates. The
			// blocking code does pairwise 8-byte reductions across the
			// row; the overlapped variant combines both dots into one
			// nonblocking allreduce that rides under the vector updates
			// (a world-wide reduction — rows are symmetric, and exact
			// when the grid degenerates to a single row).
			if p.Overlap {
				cr := r.Iallreduce(2 * doubleBytes)
				r.Compute(localVec)
				r.WaitColl(cr)
			} else {
				for d := 0; d < 2; d++ {
					for i := 0; i < l2npcols; i++ {
						partner := procRow*npcols + (procCol ^ (1 << i))
						r.Sendrecv(partner, tagDot+8*d+i, doubleBytes, partner, tagDot+8*d+i)
					}
				}
				r.Compute(localVec)
			}
		}
		// Residual norm of the outer step.
		if p.Overlap {
			cr := r.Iallreduce(doubleBytes)
			r.Compute(localVec)
			r.WaitColl(cr)
		} else {
			for i := 0; i < l2npcols; i++ {
				partner := procRow*npcols + (procCol ^ (1 << i))
				r.Sendrecv(partner, tagDot+100+i, doubleBytes, partner, tagDot+100+i)
			}
			r.Compute(localVec)
		}
	}
	r.Allreduce(doubleBytes)
}
