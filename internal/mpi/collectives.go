package mpi

import "time"

// Collective operations, built on the library's own point-to-point
// protocols with an internal message context so they can never match
// user wildcard receives. Each collective counts as a single library
// call for the instrumentation (enter/exit nesting).
//
// Every rank must invoke collectives in the same order; the per-rank
// collective sequence number, embedded in the internal tags, keeps
// rounds of successive collectives apart even when fast ranks run
// ahead.
//
// The single implementation lives on Comm (comm.go); the Rank-level
// calls below delegate to the world communicator, whose tag and
// sequence spaces are identical to the historical Rank-level ones
// (communicator id 0 contributes nothing to ctag, and the world
// communicator shares the rank's collective sequence counter), so the
// delegation is wire-compatible with prior releases.

// colTag builds an internal tag from the collective sequence number
// and the round within the operation.
func colTag(seq, round int) int { return seq<<8 | round }

// nextColSeq advances the rank's collective counter.
func (r *Rank) nextColSeq() int {
	s := r.colSeq
	r.colSeq++
	return s
}

// isendCol and irecvCol are the internal building blocks; they run
// inside an already-entered collective and so skip enter/exit.
func (r *Rank) isendCol(dst, tag, size int) *Request {
	req := r.newReq(reqSend, dst, tag, size)
	r.startSend(req, ctxCollective, false)
	return req
}

func (r *Rank) irecvCol(src, tag int) *Request {
	return r.postRecv(src, tag, ctxCollective)
}

func (r *Rank) waitBoth(a, b *Request) {
	r.waitUntil(func() bool { return a.done && b.done })
}

// tokenSize is the payload of synchronization-only internal messages.
const tokenSize = 4

// reduceBandwidth is the modelled reduction-operator throughput, in
// bytes per second.
const reduceBandwidth = 2e9

// reduceCost models applying the reduction operator to size bytes.
func (r *Rank) reduceCost(size int) time.Duration {
	return time.Duration(float64(size) / reduceBandwidth * 1e9)
}

// Barrier blocks until all ranks have entered it (dissemination
// algorithm: ceil(log2 P) rounds of token exchange).
func (r *Rank) Barrier() { r.World().Barrier() }

// Bcast broadcasts size bytes from root to all ranks (binomial tree).
func (r *Rank) Bcast(root, size int) { r.World().Bcast(root, size) }

// Reduce combines size bytes from every rank onto root (binomial
// tree); the reduction-operator cost is charged per received
// contribution.
func (r *Rank) Reduce(root, size int) { r.World().Reduce(root, size) }

// Allreduce combines size bytes across all ranks, leaving the result
// everywhere. Power-of-two worlds use recursive doubling; others fall
// back to Reduce followed by Bcast.
func (r *Rank) Allreduce(size int) { r.World().Allreduce(size) }

// Alltoall exchanges size bytes between every pair of ranks (pairwise
// exchange over P-1 rounds, plus the local copy).
func (r *Rank) Alltoall(size int) { r.World().Alltoall(size) }

// Alltoallv exchanges sizes[i] bytes with rank i (pairwise exchange).
// sizes must have one entry per rank; the entry for the caller itself
// is copied locally.
func (r *Rank) Alltoallv(sizes []int) { r.World().Alltoallv(sizes) }
