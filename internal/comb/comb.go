// Package comb implements a baseline in the spirit of the COMB
// benchmark suite (Lawry et al., IEEE Cluster 2002), which the paper's
// related-work section contrasts itself with: COMB assesses a
// *system's* ability to overlap MPI communication and computation,
// while the paper's framework measures the overlap an *application*
// actually achieved.
//
// Two methods are implemented:
//
//   - PostWorkWait: post non-blocking operations, perform a fixed
//     amount of work, wait; sweeping the work reveals how much
//     communication the system can hide behind it.
//   - Polling: slice the work into quanta separated by Test calls
//     (progress opportunities) — the structure that rescues overlap on
//     polling-progress libraries, foreshadowing the paper's SP fix.
//
// The committed specs/comb-*.yaml sweep Exchange over the work as
// scenario's comb workload kind and print Availability and
// OverlapEfficiency.
package comb

import (
	"fmt"
	"time"

	"ovlp/internal/mpi"
)

// Method selects the COMB measurement structure.
type Method int

const (
	// PostWorkWait posts the exchange, computes one solid block, then
	// waits.
	PostWorkWait Method = iota
	// Polling slices the work into quanta separated by Test calls.
	Polling
)

func (m Method) String() string {
	if m == PostWorkWait {
		return "post-work-wait"
	}
	return "polling"
}

// ParseMethod reads a method by its String name.
func ParseMethod(s string) (Method, error) {
	for _, m := range []Method{PostWorkWait, Polling} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown COMB method %q (want post-work-wait or polling)", s)
}

// Quantum is the polling method's compute slice between Test calls.
const Quantum = 20 * time.Microsecond

// Exchange runs one rank's side of the COMB exchange: reps iterations
// of posting an Isend/Irecv pair with the peer rank, performing work
// under the method's structure and waiting for both. It returns the
// rank's elapsed time over all iterations.
func Exchange(r *mpi.Rank, method Method, size, reps int, work time.Duration) time.Duration {
	peer := 1 - r.ID()
	start := r.Now()
	for i := 0; i < reps; i++ {
		s := r.Isend(peer, 0, size)
		q := r.Irecv(peer, 0)
		if method == PostWorkWait && work > 0 {
			r.Compute(work)
		}
		for remaining := work; method == Polling && remaining > 0; {
			slice := min(Quantum, remaining)
			r.Compute(slice)
			remaining -= slice
			if remaining > 0 {
				r.Test(s)
				r.Test(q)
			}
		}
		r.Waitall(s, q)
	}
	return r.Now() - start
}

// Availability is work / elapsed: the CPU fraction the application
// kept for itself over an exchange that took elapsed per iteration.
func Availability(work, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(work) / float64(elapsed)
}

// OverlapEfficiency is (base + work - elapsed) / min(base, work),
// clamped to [0, 1]: the fraction of the hideable time actually
// hidden, where base is the exchange time with no work.
func OverlapEfficiency(base, work, elapsed time.Duration) float64 {
	if hideable := min(base, work); hideable > 0 {
		return max(0, min(1, float64(base+work-elapsed)/float64(hideable)))
	}
	return 0
}
