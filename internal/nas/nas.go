// Package nas implements communication-faithful skeletons of the NAS
// Parallel Benchmarks (NPB 3.2 for MPI, NPB 2.4 for the ARMCI MG
// variants) — the application workloads of the paper's Sec. 4.
//
// Each skeleton reproduces the benchmark's process topology,
// communication structure (which calls, in which order, with which
// neighbours), message sizes and message counts for the standard
// problem classes, with the numerical kernels replaced by virtual-time
// computation whose duration comes from the kernel's floating-point
// operation count over a machine model. Overlap characterization
// depends exactly on these properties — the message-size distribution,
// the placement of nonblocking calls relative to computation, and the
// compute-to-communication ratio — not on the arithmetic itself.
package nas

import (
	"fmt"
	"math"
	"time"

	"ovlp/internal/mpi"
)

// Class is an NPB problem class.
type Class byte

// The standard problem classes. (C and beyond are omitted: the paper
// evaluates S through B.)
const (
	ClassS Class = 'S'
	ClassW Class = 'W'
	ClassA Class = 'A'
	ClassB Class = 'B'
)

func (c Class) String() string { return string(c) }

// flopRate is the compute model: the paper's 2.4 GHz Pentium 4 Xeon
// at a sustained 1 GFLOP/s, in flops per second.
const flopRate = 1e9

// flopTime converts a kernel's flop count to virtual computation time.
func flopTime(flops float64) time.Duration {
	return time.Duration(flops / flopRate * 1e9)
}

// Params configures one benchmark run.
type Params struct {
	Class Class
	// MaxIters caps the benchmark's iteration count (0 = the class's
	// standard count). Overlap percentages converge within a few
	// iterations, so experiments may truncate long benchmarks.
	MaxIters int
	// Overlap selects the overlapped-collective variant of the
	// benchmarks that have one (CG, FT, MG): reductions and transposes
	// are issued as nonblocking collectives and advanced by the rank's
	// configured progress engine while independent computation runs.
	// Benchmarks without collective phases ignore it.
	Overlap bool
	// Iprobe inserts Iprobe calls into SP's overlap windows — the
	// paper's Sec. 4.3 code change. Only SP honours it.
	Iprobe bool
}

func (p *Params) fill() {
	if p.Class == 0 {
		p.Class = ClassS
	}
}

func (p *Params) iters(std int) int {
	if p.MaxIters > 0 && p.MaxIters < std {
		return p.MaxIters
	}
	return std
}

// doubleBytes is the size of the Fortran double precision word all
// NPB payloads are made of.
const doubleBytes = 8

// isqrt returns the integer square root of n, panicking unless n is a
// perfect square — BT and SP require square process grids.
func isqrt(n int) int {
	q, ok := sqrtOf(n)
	if !ok {
		panic(notSquare(n).Error())
	}
	return q
}

// sqrtOf returns n's integer square root and whether n is a perfect
// square.
func sqrtOf(n int) (int, bool) {
	q := int(math.Round(math.Sqrt(float64(n))))
	return q, q*q == n
}

func notSquare(procs int) error {
	return fmt.Errorf("nas: %d processes do not form a square grid", procs)
}

// grid2 factors p into the most square px*py decomposition with
// px >= py (as NPB's LU and CG do for powers of two, generalized).
func grid2(p int) (px, py int) {
	py = int(math.Sqrt(float64(p)))
	for p%py != 0 {
		py--
	}
	return p / py, py
}

// grid3 factors p into a near-cubic px*py*pz decomposition.
func grid3(p int) (px, py, pz int) {
	pz = int(math.Cbrt(float64(p)))
	for p%pz != 0 {
		pz--
	}
	px, py = grid2(p / pz)
	return px, py, pz
}

// ceilDiv returns ceil(a/b).
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// log2 returns floor(log2 n).
func log2(n int) int {
	k := 0
	for 1<<(k+1) <= n {
		k++
	}
	return k
}

// Benchmark names, as accepted by Run.
const (
	BT = "BT"
	CG = "CG"
	LU = "LU"
	FT = "FT"
	SP = "SP"
	MG = "MG"
	IS = "IS"
	EP = "EP"
)

// Names lists the MPI benchmarks in the order the paper discusses
// them.
func Names() []string { return []string{BT, CG, LU, FT, SP, MG, IS, EP} }

// Check reports why benchmark name cannot run problem class on procs
// ranks — an unknown benchmark, a class it has no size for, a rank
// count its process grid cannot take — or returns nil. The skeletons
// panic with the same message, so a driver that checks first never
// reaches that panic. A zero class is ClassS, as in Params.
func Check(name string, class Class, procs int) error {
	if class == 0 {
		class = ClassS
	}
	var ok bool
	switch name {
	case BT:
		_, ok = btSpecs[class]
	case CG:
		_, ok = cgSpecs[class]
	case LU:
		_, ok = luSpecs[class]
	case FT:
		_, ok = ftSpecs[class]
	case SP:
		_, ok = spSpecs[class]
	case MG:
		_, ok = mgSpecs[class]
	case IS:
		_, ok = isSpecs[class]
	case EP:
		_, ok = epSpecs[class]
	default:
		return fmt.Errorf("nas: unknown benchmark %q", name)
	}
	_, square := sqrtOf(procs)
	switch {
	case !ok:
		return fmt.Errorf("nas: %s has no class %s", name, class)
	case procs < 1:
		return fmt.Errorf("nas: %d processes: need at least one", procs)
	case name == CG && procs&(procs-1) != 0:
		return fmt.Errorf("nas: CG needs a power-of-two number of processes")
	case (name == BT || name == SP) && !square:
		return notSquare(procs)
	}
	return nil
}

// mustFit panics with Check's message unless benchmark name can run
// class on procs ranks.
func mustFit(name string, class Class, procs int) {
	if err := Check(name, class, procs); err != nil {
		panic(err.Error())
	}
}

// Run dispatches a benchmark by name on the calling rank.
func Run(name string, r *mpi.Rank, p Params) {
	switch name {
	case BT:
		RunBT(r, p)
	case CG:
		RunCG(r, p)
	case LU:
		RunLU(r, p)
	case FT:
		RunFT(r, p)
	case SP:
		RunSP(r, p)
	case MG:
		RunMG(r, p)
	case IS:
		RunIS(r, p)
	case EP:
		RunEP(r, p)
	default:
		panic(fmt.Sprintf("nas: unknown benchmark %q", name))
	}
}
