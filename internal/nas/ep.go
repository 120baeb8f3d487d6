package nas

import "ovlp/internal/mpi"

// EP — embarrassingly parallel random-number kernel.
//
// EP generates Gaussian deviate pairs independently on every rank and
// communicates only at the end: three small allreduces for the sums
// and the annulus counts. The paper measures EP but does not report
// it, "as it performs minimal communication"; the skeleton exists so
// the suite is complete and the instrumentation-overhead experiment
// can include a communication-free extreme.

type epSpec struct {
	samples float64 // 2^m pairs
}

var epSpecs = map[Class]epSpec{
	ClassS: {1 << 24},
	ClassW: {1 << 25},
	ClassA: {1 << 28},
	ClassB: {1 << 30},
}

// epFlopsPerPair approximates the cost of one accepted-or-rejected
// Gaussian pair (random generation, squares, logarithm).
const epFlopsPerPair = 60

// RunEP executes the EP skeleton on the calling rank.
func RunEP(r *mpi.Rank, p Params) {
	p.fill()
	mustFit(EP, p.Class, r.Size())
	spec := epSpecs[p.Class]

	// EP generates pairs in batches of 2^16 (NPB's nk blocking); the
	// iteration cap truncates batches for cheap experiment runs.
	const batch = 1 << 16
	batches := int(spec.samples) / batch / r.Size()
	if batches < 1 {
		batches = 1
	}
	batches = p.iters(batches)
	r.Compute(flopTime(epFlopsPerPair * float64(batches*batch)))
	r.Allreduce(doubleBytes)      // sum X
	r.Allreduce(doubleBytes)      // sum Y
	r.Allreduce(10 * doubleBytes) // annulus counts
}
