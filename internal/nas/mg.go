package nas

import (
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/mpi"
)

// MG — V-cycle multigrid on a 3-D periodic grid with a 3-D process
// decomposition.
//
// Communication is the comm3 ghost exchange: at every grid level, each
// axis swaps one-deep faces with both neighbours (axis by axis, so
// edge and corner values propagate). RunMG is the NPB 3.2 MPI version;
// RunMGARMCI reproduces the paper's Sec. 4.4 study: the NPB 2.4 MG
// rewritten over ARMCI one-sided operations, in a blocking variant
// (puts completed in place — zero overlap by construction) and a
// non-blocking variant that issues the next exchange's puts before
// working on the current data, which the paper measures at up to 99%
// maximum overlap (Fig. 19).

type mgSpec struct {
	n     int
	iters int
}

var mgSpecs = map[Class]mgSpec{
	ClassS: {32, 4},
	ClassW: {128, 4},
	ClassA: {256, 4},
	ClassB: {256, 20},
}

// Approximate flops per grid point per V-cycle visit (resid + psinv +
// rprj3/interp shares).
const (
	mgSmoothFlops   = 25
	mgResidFlops    = 27
	mgTransferFlops = 12
)

// mgGeom captures one rank's place in the 3-D decomposition.
type mgGeom struct {
	px, py, pz int
	ix, iy, iz int
}

func newMGGeom(id, procs int) mgGeom {
	px, py, pz := grid3(procs)
	return mgGeom{
		px: px, py: py, pz: pz,
		ix: id % px,
		iy: (id / px) % py,
		iz: id / (px * py),
	}
}

func (g mgGeom) rank(ix, iy, iz int) int {
	ix = (ix + g.px) % g.px
	iy = (iy + g.py) % g.py
	iz = (iz + g.pz) % g.pz
	return (iz*g.py+iy)*g.px + ix
}

// neighbors returns the minus and plus neighbour along the axis.
func (g mgGeom) neighbors(axis int) (lo, hi int) {
	switch axis {
	case 0:
		return g.rank(g.ix-1, g.iy, g.iz), g.rank(g.ix+1, g.iy, g.iz)
	case 1:
		return g.rank(g.ix, g.iy-1, g.iz), g.rank(g.ix, g.iy+1, g.iz)
	default:
		return g.rank(g.ix, g.iy, g.iz-1), g.rank(g.ix, g.iy, g.iz+1)
	}
}

// level describes the local extents and face sizes at one grid level.
type mgLevel struct {
	lx, ly, lz int
	faces      [3]int // face bytes per axis
	points     float64
}

func mgLevels(spec mgSpec, g mgGeom) []mgLevel {
	var levels []mgLevel
	for n := spec.n; n >= 4; n /= 2 {
		lx := max(1, n/g.px)
		ly := max(1, n/g.py)
		lz := max(1, n/g.pz)
		levels = append(levels, mgLevel{
			lx: lx, ly: ly, lz: lz,
			faces: [3]int{
				doubleBytes * ly * lz,
				doubleBytes * lx * lz,
				doubleBytes * lx * ly,
			},
			points: float64(lx * ly * lz),
		})
	}
	return levels // levels[0] is the finest
}

// RunMG executes the MPI MG skeleton on the calling rank.
func RunMG(r *mpi.Rank, p Params) {
	p.fill()
	mustFit(MG, p.Class, r.Size())
	spec := mgSpecs[p.Class]
	g := newMGGeom(r.ID(), r.Size())
	levels := mgLevels(spec, g)
	const tag = 700

	comm3 := func(lv mgLevel) {
		for axis := 0; axis < 3; axis++ {
			lo, hi := g.neighbors(axis)
			rq1 := r.Irecv(lo, tag+axis)
			rq2 := r.Irecv(hi, tag+axis)
			s1 := r.Isend(lo, tag+axis, lv.faces[axis])
			s2 := r.Isend(hi, tag+axis, lv.faces[axis])
			r.Waitall(rq1, rq2, s1, s2)
		}
	}

	r.Bcast(0, 4*doubleBytes)
	comm3(levels[0]) // initial residual exchange
	iters := p.iters(spec.iters)
	// In the overlapped variant the residual-norm allreduce is issued
	// nonblockingly and the convergence check deferred one iteration,
	// so the reduction rides under the whole next V-cycle.
	var pending *mpi.CollRequest
	for it := 0; it < iters; it++ {
		// Down-cycle: restrict to coarser grids.
		for l := 0; l < len(levels)-1; l++ {
			lv := levels[l]
			r.Compute(flopTime(mgResidFlops * lv.points))
			comm3(lv)
			r.Compute(flopTime(mgTransferFlops * lv.points))
		}
		// Coarsest solve.
		r.Compute(flopTime(mgSmoothFlops * levels[len(levels)-1].points))
		// Up-cycle: interpolate and smooth back to the finest grid.
		for l := len(levels) - 2; l >= 0; l-- {
			lv := levels[l]
			r.Compute(flopTime(mgTransferFlops * lv.points))
			comm3(lv)
			r.Compute(flopTime(mgSmoothFlops * lv.points))
		}
		// Residual norm.
		if p.Overlap {
			if pending != nil {
				r.WaitColl(pending)
			}
			pending = r.Iallreduce(2 * doubleBytes)
		} else {
			r.Allreduce(2 * doubleBytes)
		}
	}
	if pending != nil {
		r.WaitColl(pending)
	}
	r.Allreduce(2 * doubleBytes)
}

// MGVariant selects the ARMCI MG flavour of the paper's Sec. 4.4.
type MGVariant int

const (
	// MGBlocking completes each put inside the call — the baseline
	// whose overlap the instrumentation reports as (near) zero.
	MGBlocking MGVariant = iota
	// MGNonblocking issues the puts non-blockingly and computes on the
	// current dimension's data before waiting — the variant the paper
	// measures at up to 99% maximum overlap.
	MGNonblocking
)

func (v MGVariant) String() string {
	if v == MGBlocking {
		return "blocking"
	}
	return "non-blocking"
}

// RunMGARMCI executes the one-sided MG skeleton on the calling ARMCI
// process.
func RunMGARMCI(pr *armci.Proc, p Params, variant MGVariant) {
	p.fill()
	mustFit(MG, p.Class, pr.Size())
	spec := mgSpecs[p.Class]
	g := newMGGeom(pr.ID(), pr.Size())
	levels := mgLevels(spec, g)

	// comm3 over one-sided puts. The compute argument is the work on
	// the current dimension's data; the non-blocking variant performs
	// it between issuing the puts and waiting for them.
	//
	// Face layout follows the usual row-major packing: the z-face is
	// contiguous, the y-face is put strided (lz segments of one x-row,
	// ARMCI_PutS), and the heavily strided x-face is packed by the
	// host into a contiguous buffer first.
	comm3 := func(lv mgLevel, work time.Duration) {
		perAxis := work / 3
		put := func(dst, axis int) *armci.Handle {
			if axis == 1 && lv.lz > 1 {
				return pr.NbPutStrided(dst, lv.lz, lv.faces[1]/lv.lz)
			}
			return pr.NbPut(dst, lv.faces[axis])
		}
		for axis := 0; axis < 3; axis++ {
			lo, hi := g.neighbors(axis)
			pack := flopTime(2 * float64(lv.faces[axis]/doubleBytes))
			if axis == 0 {
				pack *= 2 // gather the strided x-face into a buffer
			}
			pr.Compute(pack)
			switch variant {
			case MGBlocking:
				h1, h2 := put(lo, axis), put(hi, axis)
				pr.WaitHandle(h1)
				pr.WaitHandle(h2)
				pr.Compute(perAxis)
			case MGNonblocking:
				h1, h2 := put(lo, axis), put(hi, axis)
				pr.Compute(perAxis)
				pr.WaitHandle(h1)
				pr.WaitHandle(h2)
			}
		}
		pr.Barrier() // notify/consume ghost updates
	}

	comm3(levels[0], flopTime(mgResidFlops*levels[0].points))
	iters := p.iters(spec.iters)
	for it := 0; it < iters; it++ {
		for l := 0; l < len(levels)-1; l++ {
			lv := levels[l]
			comm3(lv, flopTime(mgResidFlops*lv.points))
			pr.Compute(flopTime(mgTransferFlops * lv.points))
		}
		pr.Compute(flopTime(mgSmoothFlops * levels[len(levels)-1].points))
		for l := len(levels) - 2; l >= 0; l-- {
			lv := levels[l]
			pr.Compute(flopTime(mgTransferFlops * lv.points))
			comm3(lv, flopTime(mgSmoothFlops*lv.points))
		}
		pr.Barrier()
	}
	pr.Barrier()
}
