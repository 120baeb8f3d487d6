package nas

import (
	"time"

	"ovlp/internal/mpi"
)

// BT — block tridiagonal ADI solver on the multi-partition scheme.
//
// Structure per time step (NPB 3.2 bt.f):
//
//	copy_faces: exchange six ghost faces with the grid neighbours
//	            (large messages, immediate Waitall — no overlap
//	            attempted);
//	compute_rhs;
//	x_solve, y_solve, z_solve: q-stage sweeps, each stage receiving
//	            boundary blocks from the predecessor cell, eliminating
//	            locally, and forwarding to the successor (blocking
//	            calls — BT does not attempt overlap);
//	add.
//
// BT's traffic is dominated by long messages (the paper's explanation
// for its lower overlap than CG).

type btSpec struct {
	n     int // grid points per dimension
	iters int
}

var btSpecs = map[Class]btSpec{
	ClassS: {12, 60},
	ClassW: {24, 200},
	ClassA: {64, 200},
	ClassB: {102, 200},
}

// Approximate per-point flop counts per time step, from the NPB BT
// operation counts (~3000 flops/point/iteration total).
const (
	btRHSFlops   = 250
	btSolveFlops = 600 // per direction
	btAddFlops   = 25
)

// RunBT executes the BT skeleton on the calling rank. The number of
// ranks must be a perfect square.
func RunBT(r *mpi.Rank, p Params) {
	p.fill()
	mustFit(BT, p.Class, r.Size())
	spec := btSpecs[p.Class]
	g := newSqGrid(r.ID(), r.Size())
	c := ceilDiv(spec.n, g.q)       // cell dimension
	pts := float64(g.q * c * c * c) // points per rank

	// Message sizes: ghost faces carry 5 solution components over two
	// layers for each of the rank's q cells; solve stages forward the
	// 5x5 LHS block row plus the 5-component RHS for a cell face.
	faceBytes := 2 * 5 * doubleBytes * c * c * g.q
	stageBytes := 30 * doubleBytes * c * c

	const tagFace, tagSolve = 100, 200

	r.Bcast(0, 5*doubleBytes) // timestep parameters
	iters := p.iters(spec.iters)
	for it := 0; it < iters; it++ {
		copyFaces(r, g, faceBytes, tagFace, flopTime(40*pts))
		r.Compute(flopTime(btRHSFlops * pts))
		for dir := 0; dir < 3; dir++ {
			btSolve(r, g, dir, stageBytes, tagSolve+dir, p)
		}
		r.Compute(flopTime(btAddFlops * pts))
	}
	r.Allreduce(5 * doubleBytes) // verification norms
}

// copyFaces performs the six-way ghost exchange shared by BT and SP:
// post all receives, post all sends, wait for everything, then unpack.
func copyFaces(r *mpi.Rank, g sqGrid, bytes, tag int, unpack time.Duration) {
	nbrs := g.faceNeighbors()
	reqs := make([]*mpi.Request, 0, 12)
	for _, nb := range nbrs {
		reqs = append(reqs, r.Irecv(nb, tag))
	}
	for _, nb := range nbrs {
		reqs = append(reqs, r.Isend(nb, tag, bytes))
	}
	r.Waitall(reqs...)
	r.Compute(unpack)
}

// btSolve runs one direction's sweep: forward elimination down the
// cell chain, then back substitution up it, with blocking
// communication at each stage.
func btSolve(r *mpi.Rank, g sqGrid, dir, stageBytes, tag int, p Params) {
	spec := btSpecs[p.Class]
	c := ceilDiv(spec.n, g.q)
	pts := float64(g.q * c * c * c)
	stageWork := flopTime(btSolveFlops * pts / float64(2*g.q))

	var pred, succ int
	switch dir {
	case 0:
		pred, succ = g.xPred(), g.xSucc()
	case 1:
		pred, succ = g.yPred(), g.ySucc()
	default:
		pred, succ = g.zPred(), g.zSucc()
	}
	// Forward elimination. Sends are non-blocking (as in NPB's
	// send_solve_info): every rank transmits at stage 0, so blocking
	// sends would deadlock the chain.
	var sreq *mpi.Request
	for stage := 0; stage < g.q; stage++ {
		if stage > 0 {
			r.Recv(pred, tag)
		}
		r.Compute(stageWork)
		if sreq != nil {
			r.Wait(sreq)
			sreq = nil
		}
		if stage < g.q-1 {
			sreq = r.Isend(succ, tag, stageBytes)
		}
	}
	// Back substitution, reversed chain.
	for stage := g.q - 1; stage >= 0; stage-- {
		if stage < g.q-1 {
			r.Recv(succ, tag+10)
		}
		r.Compute(stageWork)
		if sreq != nil {
			r.Wait(sreq)
			sreq = nil
		}
		if stage > 0 {
			sreq = r.Isend(pred, tag+10, stageBytes)
		}
	}
	if sreq != nil {
		r.Wait(sreq)
	}
}
