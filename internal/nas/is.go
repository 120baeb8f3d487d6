package nas

import "ovlp/internal/mpi"

// IS — integer bucket sort.
//
// Each iteration counts keys into buckets locally, combines the bucket
// totals with an Allreduce, exchanges per-destination counts with an
// Alltoall, and redistributes the keys themselves with an Alltoallv of
// long messages. The paper omits IS from its figures because its
// overlap behaviour duplicates FT's (collective-dominated, little
// overlap); the skeleton is included for completeness.

type isSpec struct {
	totalKeys int
	buckets   int
	iters     int
}

var isSpecs = map[Class]isSpec{
	ClassS: {1 << 16, 1 << 9, 10},
	ClassW: {1 << 20, 1 << 10, 10},
	ClassA: {1 << 23, 1 << 10, 10},
	ClassB: {1 << 25, 1 << 10, 10},
}

const intBytes = 4

// RunIS executes the IS skeleton on the calling rank.
func RunIS(r *mpi.Rank, p Params) {
	p.fill()
	mustFit(IS, p.Class, r.Size())
	spec := isSpecs[p.Class]
	procs := r.Size()
	localKeys := spec.totalKeys / procs

	keyBlock := localKeys * intBytes / procs
	if keyBlock == 0 {
		keyBlock = intBytes
	}

	r.Bcast(0, 2*intBytes)
	iters := p.iters(spec.iters)
	for it := 0; it < iters; it++ {
		r.Compute(flopTime(8 * float64(localKeys)))  // bucket counting
		r.Allreduce(spec.buckets * intBytes)         // global bucket sizes
		r.Alltoall(procs * intBytes)                 // send/receive counts
		r.Alltoallv(uniform(procs, keyBlock))        // key redistribution
		r.Compute(flopTime(12 * float64(localKeys))) // local ranking
	}
	// Full verification sort on the last iteration.
	r.Compute(flopTime(20 * float64(localKeys)))
	r.Allreduce(intBytes)
}

// uniform returns a slice of n copies of v.
func uniform(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}
