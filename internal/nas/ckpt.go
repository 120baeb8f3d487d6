package nas

import (
	"math"

	"ovlp/internal/cluster"
	"ovlp/internal/mpi"
)

// fftCost is the per-rank flop count of one 3-D FFT (~5 N log2 N).
func fftCost(total, procs int) float64 {
	return 5 * float64(total) * math.Log2(float64(total)) / float64(procs)
}

// Fault-tolerant (Checkpointable) variants of the NAS kernels, for the
// crash-recovery experiments driven by cluster.RunFT. Each adapter
// expresses the kernel's outer iteration as one recoverable step over
// an arbitrary communicator: unlike the fixed-decomposition skeletons
// (RunCG requires a power-of-two grid), these rebuild their geometry
// from the communicator size in Init, so the same workload continues
// on the shrunken membership after a failure. Pairwise reduction
// ladders become communicator collectives for the same reason — the
// message mix stays representative (CG: mid-sized segments plus tiny
// dots; FT: long transposes; MG: medium ghost faces) even when the
// hypercube structure no longer exists.

// CGCkpt is the fault-tolerant CG workload: per outer step, 25 inner
// iterations of sparse matvec + partial-vector reduction + dot
// products. State is the rank's share of the three CG vectors.
type CGCkpt struct {
	p    Params
	spec cgSpec
}

// NewCGCkpt builds the workload; unlike RunCG it runs on any
// communicator size.
func NewCGCkpt(p Params) *CGCkpt {
	p.fill()
	spec, ok := cgSpecs[p.Class]
	if !ok {
		panic("nas: CG has no class " + p.Class.String())
	}
	return &CGCkpt{p: p, spec: spec}
}

func (w *CGCkpt) Name() string { return "cg" }
func (w *CGCkpt) Steps() int   { return w.p.iters(w.spec.iters) }

// StateBytes is the rank's share of the solution, direction and
// residual vectors.
func (w *CGCkpt) StateBytes(procs int) int {
	return 3 * doubleBytes * ceilDiv(w.spec.n, procs)
}

func (w *CGCkpt) Init(c *mpi.Comm) {
	c.Bcast(0, 2*doubleBytes)
}

func (w *CGCkpt) Step(c *mpi.Comm, step int) {
	r := c.Host()
	procs := c.Size()
	nnz := float64(w.spec.n) * float64(w.spec.nonzer+1) * float64(w.spec.nonzer+2)
	localMatvec := flopTime(2 * nnz / float64(procs))
	localVec := flopTime(12 * float64(w.spec.n) / float64(procs))
	segBytes := doubleBytes * ceilDiv(w.spec.n, procs)

	for inner := 0; inner < cgInnerIters; inner++ {
		// q = A.p: local matvec, then the partial-vector reduction and
		// distributed transpose (as one segment-sized reduction).
		r.Compute(localMatvec)
		c.Allreduce(segBytes)
		// Two dot products under the local vector updates.
		c.Allreduce(2 * doubleBytes)
		r.Compute(localVec)
	}
	// Residual norm of the outer step.
	c.Allreduce(doubleBytes)
	r.Compute(localVec)
}

// FTCkpt is the fault-tolerant FT workload: per step, one
// evolve + inverse-3-D-FFT iteration around the distributed transpose.
// State is the rank's spectral slab.
type FTCkpt struct {
	p    Params
	spec ftSpec
}

// NewFTCkpt builds the workload.
func NewFTCkpt(p Params) *FTCkpt {
	p.fill()
	spec, ok := ftSpecs[p.Class]
	if !ok {
		panic("nas: FT has no class " + p.Class.String())
	}
	return &FTCkpt{p: p, spec: spec}
}

func (w *FTCkpt) Name() string { return "ft" }
func (w *FTCkpt) Steps() int   { return w.p.iters(w.spec.iters) }

func (w *FTCkpt) total() int { return w.spec.nx * w.spec.ny * w.spec.nz }

// StateBytes is the rank's slab of the complex spectral array.
func (w *FTCkpt) StateBytes(procs int) int {
	return ceilDiv(w.total(), procs) * complexBytes
}

// blockBytes is the per-pair transpose block at the given size.
func (w *FTCkpt) blockBytes(procs int) int {
	b := w.total() * complexBytes / (procs * procs)
	if b == 0 {
		b = complexBytes
	}
	return b
}

// Init distributes parameters and runs the forward FFT that seeds the
// iteration state.
func (w *FTCkpt) Init(c *mpi.Comm) {
	r := c.Host()
	procs := c.Size()
	local := float64(w.total()) / float64(procs)
	fftFlops := fftCost(w.total(), procs)
	c.Bcast(0, 3*doubleBytes)
	r.Compute(flopTime(30 * local)) // indexmap + initial conditions
	r.Compute(flopTime(fftFlops * 2 / 3))
	c.Alltoall(w.blockBytes(procs))
	r.Compute(flopTime(fftFlops / 3))
}

func (w *FTCkpt) Step(c *mpi.Comm, step int) {
	r := c.Host()
	procs := c.Size()
	local := float64(w.total()) / float64(procs)
	fftFlops := fftCost(w.total(), procs)
	r.Compute(flopTime(6 * local)) // evolve
	r.Compute(flopTime(fftFlops * 2 / 3))
	c.Alltoall(w.blockBytes(procs))
	r.Compute(flopTime(fftFlops / 3))
	r.Compute(flopTime(10 * local / float64(procs)))
	c.Reduce(0, complexBytes) // checksum
	c.Bcast(0, complexBytes)
}

// MGCkpt is the fault-tolerant MG workload: per step, one V-cycle with
// comm3 ghost exchanges at every level. State is the rank's finest
// grid block.
type MGCkpt struct {
	p    Params
	spec mgSpec
}

// NewMGCkpt builds the workload.
func NewMGCkpt(p Params) *MGCkpt {
	p.fill()
	spec, ok := mgSpecs[p.Class]
	if !ok {
		panic("nas: MG has no class " + p.Class.String())
	}
	return &MGCkpt{p: p, spec: spec}
}

func (w *MGCkpt) Name() string { return "mg" }
func (w *MGCkpt) Steps() int   { return w.p.iters(w.spec.iters) }

// StateBytes is the rank's finest-level block.
func (w *MGCkpt) StateBytes(procs int) int {
	g := newMGGeom(0, procs)
	lx := max(1, w.spec.n/g.px)
	ly := max(1, w.spec.n/g.py)
	lz := max(1, w.spec.n/g.pz)
	return doubleBytes * lx * ly * lz
}

// mgComm3 is comm3 on a communicator: one-deep face swap with both
// neighbours along each axis.
func mgComm3(c *mpi.Comm, g mgGeom, lv mgLevel) {
	r := c.Host()
	const tag = 700
	for axis := 0; axis < 3; axis++ {
		lo, hi := g.neighbors(axis)
		rq1 := c.Irecv(lo, tag+axis)
		rq2 := c.Irecv(hi, tag+axis)
		s1 := c.Isend(lo, tag+axis, lv.faces[axis])
		s2 := c.Isend(hi, tag+axis, lv.faces[axis])
		r.Waitall(rq1, rq2, s1, s2)
	}
}

func (w *MGCkpt) Init(c *mpi.Comm) {
	g := newMGGeom(c.Rank(), c.Size())
	levels := mgLevels(w.spec, g)
	c.Bcast(0, 4*doubleBytes)
	mgComm3(c, g, levels[0]) // initial residual exchange
}

func (w *MGCkpt) Step(c *mpi.Comm, step int) {
	r := c.Host()
	g := newMGGeom(c.Rank(), c.Size())
	levels := mgLevels(w.spec, g)
	// Down-cycle: restrict to coarser grids.
	for l := 0; l < len(levels)-1; l++ {
		lv := levels[l]
		r.Compute(flopTime(mgResidFlops * lv.points))
		mgComm3(c, g, lv)
		r.Compute(flopTime(mgTransferFlops * lv.points))
	}
	// Coarsest solve.
	r.Compute(flopTime(mgSmoothFlops * levels[len(levels)-1].points))
	// Up-cycle: interpolate and smooth back to the finest grid.
	for l := len(levels) - 2; l >= 0; l-- {
		lv := levels[l]
		r.Compute(flopTime(mgTransferFlops * lv.points))
		mgComm3(c, g, lv)
		r.Compute(flopTime(mgSmoothFlops * lv.points))
	}
	// Residual norm.
	c.Allreduce(2 * doubleBytes)
}

// CheckpointableKernel returns the fault-tolerant variant of the named
// kernel ("cg", "ft", "mg"); ok is false for kernels without one.
func CheckpointableKernel(name string, p Params) (wl cluster.Checkpointable, ok bool) {
	switch name {
	case "cg", "CG":
		return NewCGCkpt(p), true
	case "ft", "FT":
		return NewFTCkpt(p), true
	case "mg", "MG":
		return NewMGCkpt(p), true
	}
	return nil, false
}
