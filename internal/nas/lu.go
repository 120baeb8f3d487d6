package nas

import "ovlp/internal/mpi"

// LU — SSOR solver with a 2-D pipelined wavefront.
//
// The domain is partitioned over a px x py process grid in the x-y
// plane; each SSOR iteration sweeps the k-planes twice (lower then
// upper triangular systems), and each plane's wavefront passes small
// boundary pencils — 5 doubles per interior point of one row/column —
// between north/south and west/east neighbours (NPB's exchange_1).
// This makes LU's traffic dominated by short messages, the reason the
// paper measures its overlap above 70% and rising with processor
// count (Fig. 12).
//
// The right-hand-side update exchanges whole faces (exchange_3,
// larger messages) and the residual norms are small allreduces.

type luSpec struct {
	n     int
	iters int
}

var luSpecs = map[Class]luSpec{
	ClassS: {12, 50},
	ClassW: {33, 300},
	ClassA: {64, 250},
	ClassB: {102, 250},
}

// Approximate per-point flop counts per SSOR iteration (NPB LU ~1300
// flops/point/iteration total).
const (
	luPlaneFlops = 155 // blts or buts, per point of one k-plane
	luRHSFlops   = 230
	luNormEvery  = 10 // iterations between residual-norm allreduces
)

// RunLU executes the LU skeleton on the calling rank.
func RunLU(r *mpi.Rank, p Params) {
	p.fill()
	mustFit(LU, p.Class, r.Size())
	spec := luSpecs[p.Class]
	px, py := grid2(r.Size())
	row, col := r.ID()/py, r.ID()%py
	nxl := ceilDiv(spec.n, px) // local x extent
	nyl := ceilDiv(spec.n, py) // local y extent
	nz := spec.n

	// Wavefront pencils: 5 doubles per point of the plane's boundary
	// row/column. Face exchanges ship 5 doubles per point of a whole
	// x- or y-face.
	rowBytes := 5 * doubleBytes * nyl
	colBytes := 5 * doubleBytes * nxl
	faceXBytes := 5 * doubleBytes * nyl * nz
	faceYBytes := 5 * doubleBytes * nxl * nz
	planeWork := flopTime(luPlaneFlops * float64(nxl*nyl))

	const tagLow, tagUp, tagFace = 500, 510, 520

	north, south := row > 0, row < px-1
	west, east := col > 0, col < py-1
	northR, southR := r.ID()-py, r.ID()+py
	westR, eastR := r.ID()-1, r.ID()+1

	r.Bcast(0, 10*doubleBytes)
	iters := p.iters(spec.iters)
	for it := 0; it < iters; it++ {
		// Lower-triangular sweep: wavefront from the north-west corner.
		for k := 0; k < nz; k++ {
			if north {
				r.Recv(northR, tagLow)
			}
			if west {
				r.Recv(westR, tagLow)
			}
			r.Compute(planeWork)
			if south {
				r.Send(southR, tagLow, colBytes)
			}
			if east {
				r.Send(eastR, tagLow, rowBytes)
			}
		}
		// Upper-triangular sweep: wavefront from the south-east corner.
		for k := nz - 1; k >= 0; k-- {
			if south {
				r.Recv(southR, tagUp)
			}
			if east {
				r.Recv(eastR, tagUp)
			}
			r.Compute(planeWork)
			if north {
				r.Send(northR, tagUp, colBytes)
			}
			if west {
				r.Send(westR, tagUp, rowBytes)
			}
		}
		// RHS update with whole-face ghost exchange (exchange_3).
		r.Compute(flopTime(luRHSFlops * float64(nxl*nyl*nz)))
		luExchange3(r, north, south, west, east, northR, southR, westR, eastR,
			faceXBytes, faceYBytes, tagFace)
		if it%luNormEvery == luNormEvery-1 {
			r.Allreduce(5 * doubleBytes)
		}
	}
	r.Allreduce(5 * doubleBytes)
}

// luExchange3 swaps whole boundary faces with the existing neighbours
// in both grid dimensions.
func luExchange3(r *mpi.Rank, north, south, west, east bool,
	northR, southR, westR, eastR, faceX, faceY, tag int) {
	var reqs []*mpi.Request
	if north {
		reqs = append(reqs, r.Irecv(northR, tag), r.Isend(northR, tag, faceX))
	}
	if south {
		reqs = append(reqs, r.Irecv(southR, tag), r.Isend(southR, tag, faceX))
	}
	if west {
		reqs = append(reqs, r.Irecv(westR, tag), r.Isend(westR, tag, faceY))
	}
	if east {
		reqs = append(reqs, r.Irecv(eastR, tag), r.Isend(eastR, tag, faceY))
	}
	r.Waitall(reqs...)
}
