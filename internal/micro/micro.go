// Package micro implements the paper's Sec. 3 microbenchmark: two
// processes exchange a message through a combination of point-to-point
// calls, with computation inserted between the initiating and wait
// calls of the non-blocking side(s). specs/fig3.yaml to fig9.yaml sweep
// Pair over the computation length as scenario's micro workload kind,
// printing the wait times and overlap bounds Figs. 3-9 plot.
package micro

import (
	"fmt"
	"strings"
	"time"

	"ovlp/internal/mpi"
)

// CallPair enumerates the sender/receiver call combinations of the
// experiment.
type CallPair int

const (
	// IsendRecv: sender Isend+compute+Wait, receiver blocking Recv.
	IsendRecv CallPair = iota
	// SendIrecv: sender blocking Send, receiver Irecv+compute+Wait.
	SendIrecv
	// IsendIrecv: both sides non-blocking with inserted computation.
	IsendIrecv
)

func (cp CallPair) String() string {
	switch cp {
	case IsendRecv:
		return "Isend-Recv"
	case SendIrecv:
		return "Send-Irecv"
	case IsendIrecv:
		return "Isend-Irecv"
	}
	return "invalid"
}

// ParseCallPair reads a call combination by its String name, in any
// case ("isend-irecv").
func ParseCallPair(s string) (CallPair, error) {
	for _, cp := range []CallPair{IsendRecv, SendIrecv, IsendIrecv} {
		if strings.EqualFold(s, cp.String()) {
			return cp, nil
		}
	}
	return 0, fmt.Errorf("unknown call pair %q (want isend-recv, send-irecv or isend-irecv)", s)
}

// Region labels the monitored section around each exchange, so the
// overlap percentages exclude the pacing traffic outside it.
const Region = "exchange"

// Pair runs one rank's side of the paper's pairwise exchange: reps
// transfers of size bytes from rank 0 to rank 1 under the given call
// combination, with compute inserted between the initiating and wait
// calls of the non-blocking side(s), each inside Region. It returns
// the rank's total time in its final blocking call (MPI_Wait on a
// non-blocking side, Send or Recv on a blocking one).
func Pair(r *mpi.Rank, pair CallPair, size, reps int, compute time.Duration) time.Duration {
	sender, peer := r.ID() == 0, 1-r.ID()
	blocking := pair == SendIrecv && sender || pair == IsendRecv && !sender
	var wait time.Duration
	for i := 0; i < reps; i++ {
		r.PushRegion(Region)
		var q *mpi.Request
		if !blocking {
			if sender {
				q = r.Isend(peer, 0, size)
			} else {
				q = r.Irecv(peer, 0)
			}
			r.Compute(compute)
		}
		start := r.Now()
		switch {
		case q != nil:
			r.Wait(q)
		case sender:
			r.Send(peer, 0, size)
		default:
			r.Recv(peer, 0)
		}
		wait += r.Now() - start
		r.PopRegion()
	}
	return wait
}

// ExchangeWorkload is the microbenchmark's fault-tolerant form: a ring
// neighbour exchange with inserted computation, as a
// cluster.Checkpointable the recovery experiments can crash and
// resume. State is the rank's message buffer.
type ExchangeWorkload struct {
	// MsgSize is the exchanged message size in bytes.
	MsgSize int
	// Compute is the computation inserted between initiation and wait.
	Compute time.Duration
	// StepCount is the number of exchange steps.
	StepCount int
}

func (w *ExchangeWorkload) Name() string { return "exchange" }

func (w *ExchangeWorkload) Steps() int { return w.StepCount }

func (w *ExchangeWorkload) StateBytes(procs int) int { return w.MsgSize }

func (w *ExchangeWorkload) Init(c *mpi.Comm) {}

func (w *ExchangeWorkload) Step(c *mpi.Comm, step int) {
	r := c.Host()
	r.PushRegion(Region)
	defer r.PopRegion()
	n := c.Size()
	if n == 1 {
		r.Compute(w.Compute)
		return
	}
	next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
	rq := c.Irecv(prev, 0)
	sq := c.Isend(next, 0, w.MsgSize)
	r.Compute(w.Compute)
	r.Waitall(rq, sq)
}

// PolledColl runs reps nonblocking collectives on r, each started with
// start, overlapped by compute split into polls+1 slices with TestColl
// between them, and finished by WaitColl.
func PolledColl(r *mpi.Rank, start func(r *mpi.Rank, size int) *mpi.CollRequest, size, reps, polls int, compute time.Duration) {
	slice := compute / time.Duration(polls+1)
	for i := 0; i < reps; i++ {
		cr := start(r, size)
		for k := 0; k < polls; k++ {
			r.Compute(slice)
			r.TestColl(cr)
		}
		r.Compute(slice)
		r.WaitColl(cr)
	}
}
