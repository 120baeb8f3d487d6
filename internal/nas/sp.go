package nas

import (
	"time"

	"ovlp/internal/mpi"
)

// SP — scalar pentadiagonal ADI solver (Thomas algorithm) on the
// multi-partition scheme; the benchmark of the paper's Sec. 4.3 case
// study.
//
// Unlike BT, SP explicitly attempts computation-communication overlap
// in x_solve, y_solve and z_solve: at two places per sweep (forward
// elimination and back substitution) it computes between posting an
// MPI_Irecv and waiting for it. The paper's instrumentation shows the
// attempt mostly fails under a polling library — the rendezvous
// request sits unnoticed while the application computes — and that
// inserting MPI_Iprobe calls into the computation region recovers the
// overlap (up to 98% for class A on 9 processors) and cuts total MPI
// time by up to ~23%.
//
// RunSP reproduces both variants: SPParams.Modified inserts spIprobes
// progress-forcing probe calls into each overlap window. The solve
// sweeps are wrapped in the monitored region RegionSPOverlap, giving
// the paper's "overlapping section" numbers (Figs. 14, 15) alongside
// the whole-code numbers (Figs. 16, 17).

// RegionSPOverlap names the monitored region covering SP's solve
// sweeps, where the explicit overlap attempt lives.
const RegionSPOverlap = "sp-overlap-section"

type spSpec struct {
	n     int
	iters int
}

var spSpecs = map[Class]spSpec{
	ClassS: {12, 100},
	ClassW: {36, 400},
	ClassA: {64, 400},
	ClassB: {102, 400},
}

// Approximate per-point flop counts per time step (NPB SP ~1400
// flops/point/iteration total).
const (
	spRHSFlops   = 220
	spSolveFlops = 350 // per direction, split over the sweep stages
	spAddFlops   = 25
	// spLHSShare is the fraction of a stage's work that is the LHS
	// factorization — the computation SP places inside the overlap
	// window between Irecv and Wait.
	spLHSShare = 0.6
	// spIprobes is how many probe calls the modified code puts in each
	// overlap window; the paper tried several counts and positions.
	spIprobes = 4
)

// SPParams configures an SP run.
type SPParams struct {
	Params
	// Modified inserts Iprobe calls into the overlap windows — the
	// paper's code change.
	Modified bool
}

// RunSP executes the SP skeleton on the calling rank. The number of
// ranks must be a perfect square.
func RunSP(r *mpi.Rank, p SPParams) {
	p.fill()
	mustFit(SP, p.Class, r.Size())
	spec := spSpecs[p.Class]
	g := newSqGrid(r.ID(), r.Size())
	c := ceilDiv(spec.n, g.q)
	pts := float64(g.q * c * c * c)

	// copy_faces moves two ghost layers of 5 components per cell —
	// the paper calls out its "substantial volume of data ... with no
	// computation to overlap". Solve stages forward 8 doubles per face
	// point (the 5-component RHS plus the pentadiagonal pivot
	// coefficients).
	faceBytes := 2 * 5 * doubleBytes * c * c * g.q
	stageBytes := 8 * doubleBytes * c * c

	const tagFace, tagSolve = 300, 400

	r.Bcast(0, 5*doubleBytes)
	iters := p.iters(spec.iters)
	for it := 0; it < iters; it++ {
		copyFaces(r, g, faceBytes, tagFace, flopTime(40*pts))
		r.Compute(flopTime(spRHSFlops * pts)) // compute_rhs + txinvr
		for dir := 0; dir < 3; dir++ {
			spSolve(r, g, dir, stageBytes, tagSolve+dir, p)
		}
		r.Compute(flopTime(spAddFlops * pts))
	}
	r.Allreduce(5 * doubleBytes)
}

// spSolve runs one direction's Thomas-algorithm sweep: forward
// elimination then back substitution, each a q-stage chain with SP's
// Irecv / compute / Wait overlap structure.
func spSolve(r *mpi.Rank, g sqGrid, dir, stageBytes, tag int, p SPParams) {
	spec := spSpecs[p.Class]
	c := ceilDiv(spec.n, g.q)
	pts := float64(g.q * c * c * c)
	stageWork := spSolveFlops * pts / float64(2*g.q)
	lhsWork := flopTime(stageWork * spLHSShare)
	elimWork := flopTime(stageWork * (1 - spLHSShare))

	var pred, succ int
	switch dir {
	case 0:
		pred, succ = g.xPred(), g.xSucc()
	case 1:
		pred, succ = g.yPred(), g.ySucc()
	default:
		pred, succ = g.zPred(), g.zSucc()
	}

	sweep := func(from, to, tag int) {
		// Sends are non-blocking with the wait deferred one stage (as
		// in NPB): the multi-partition chain wraps around the process
		// grid, so blocking sends would deadlock at stage 0.
		var sq *mpi.Request
		for stage := 0; stage < g.q; stage++ {
			var rq *mpi.Request
			if stage > 0 {
				rq = r.Irecv(from, tag)
			}
			// Overlap window: LHS factorization between Irecv and
			// Wait, optionally sliced by progress-forcing Iprobes.
			spOverlapWindow(r, lhsWork, p)
			if rq != nil {
				r.Wait(rq)
			}
			r.Compute(elimWork)
			if sq != nil {
				r.Wait(sq)
				sq = nil
			}
			if stage < g.q-1 {
				sq = r.Isend(to, tag, stageBytes)
			}
		}
		if sq != nil {
			r.Wait(sq)
		}
	}

	r.PushRegion(RegionSPOverlap)
	sweep(pred, succ, tag)
	sweep(succ, pred, tag+10)
	r.PopRegion()
}

// spOverlapWindow models the LHS computation, optionally sliced by
// Iprobe calls (the paper's modification).
func spOverlapWindow(r *mpi.Rank, work time.Duration, p SPParams) {
	if !p.Modified {
		r.Compute(work)
		return
	}
	chunk := work / (spIprobes + 1)
	for i := 0; i < spIprobes; i++ {
		r.Compute(chunk)
		r.Iprobe(mpi.AnySource, mpi.AnyTag)
	}
	r.Compute(chunk)
}
