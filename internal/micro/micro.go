// Package micro implements the paper's Sec. 3 microbenchmark: two
// processes exchange a message through different combinations of
// point-to-point calls, with increasing computation inserted between
// the initiating and wait calls of the non-blocking side(s). For each
// computation length it reports the average time spent in MPI_Wait and
// the minimum and maximum overlap percentages measured by the
// instrumentation — the series plotted in Figs. 3-9.
package micro

import (
	"fmt"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
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

// regionName labels the monitored section around each exchange, so the
// overlap percentages exclude the pacing traffic outside it.
const regionName = "exchange"

// Experiment describes one microbenchmark sweep.
type Experiment struct {
	Pair     CallPair
	Protocol mpi.LongProtocol
	// MsgSize is the message size in bytes: 10 KiB selects the eager
	// path, 1 MiB the rendezvous path, as in the paper.
	MsgSize int
	// Reps is the number of transfers per computation point (the paper
	// uses 1000).
	Reps int
	// ComputePoints are the inserted computation lengths to sweep.
	ComputePoints []time.Duration
	// Config overrides the machine configuration; zero uses defaults.
	Config cluster.Config
	// Observe, when non-nil, receives each sweep point's raw cluster
	// result (reports, calibration table, fault statistics) after the
	// run — the hook drivers use to feed the profiler.
	Observe func(cluster.Result)
}

// Point is one measured sweep point.
type Point struct {
	Compute time.Duration
	// SenderWait and ReceiverWait are the average per-iteration times
	// spent in the final blocking call of each side (MPI_Wait for
	// non-blocking sides, Send/Recv for blocking ones).
	SenderWait   time.Duration
	ReceiverWait time.Duration
	// Overlap bounds, as percentages of data transfer time, for each
	// side's transfers inside the monitored exchange region.
	SenderMin, SenderMax     float64
	ReceiverMin, ReceiverMax float64
}

// Run executes the sweep and returns one Point per computation length.
func (e Experiment) Run() []Point {
	if e.MsgSize <= 0 {
		panic("micro: MsgSize must be positive")
	}
	if e.Reps <= 0 {
		e.Reps = 1000
	}
	if e.Config.MPI.Instrument == nil {
		// Share one instrument config across the sweep so the
		// auto-calibrated table is measured once, not per point —
		// material when the real backend calibrates in wall-clock time.
		e.Config.MPI.Instrument = &mpi.InstrumentConfig{}
	}
	points := make([]Point, 0, len(e.ComputePoints))
	for _, c := range e.ComputePoints {
		points = append(points, e.runPoint(c))
	}
	return points
}

func (e Experiment) runPoint(c time.Duration) Point {
	cfg := e.Config
	cfg.Procs = 2
	cfg.MPI.Protocol = e.Protocol
	if cfg.MPI.Instrument == nil {
		cfg.MPI.Instrument = &mpi.InstrumentConfig{}
	}

	var waits [2]time.Duration
	res := cluster.Run(cfg, func(r *mpi.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < e.Reps; i++ {
			r.PushRegion(regionName)
			start := time.Duration(0)
			if r.ID() == 0 {
				switch e.Pair {
				case IsendRecv, IsendIrecv:
					q := r.Isend(peer, 0, e.MsgSize)
					r.Compute(c)
					start = r.Now()
					r.Wait(q)
				case SendIrecv:
					start = r.Now()
					r.Send(peer, 0, e.MsgSize)
				}
			} else {
				switch e.Pair {
				case IsendRecv:
					start = r.Now()
					r.Recv(peer, 0)
				case SendIrecv, IsendIrecv:
					q := r.Irecv(peer, 0)
					r.Compute(c)
					start = r.Now()
					r.Wait(q)
				}
			}
			waits[r.ID()] += r.Now() - start
			r.PopRegion()
		}
	})

	if e.Observe != nil {
		e.Observe(res)
	}
	p := Point{
		Compute:      c,
		SenderWait:   waits[0] / time.Duration(e.Reps),
		ReceiverWait: waits[1] / time.Duration(e.Reps),
	}
	if reg := regionMeasures(res.Reports[0]); reg != nil {
		p.SenderMin, p.SenderMax = reg.MinPercent(), reg.MaxPercent()
	}
	if reg := regionMeasures(res.Reports[1]); reg != nil {
		p.ReceiverMin, p.ReceiverMax = reg.MinPercent(), reg.MaxPercent()
	}
	return p
}

func regionMeasures(rep *overlap.Report) *overlap.Measures {
	if rep == nil {
		return nil
	}
	reg := rep.Region(regionName)
	if reg == nil {
		return nil
	}
	return &reg.Total
}

// PaperFigure returns the experiment matching the given paper figure
// number (3-9), with the paper's message size and computation sweep.
func PaperFigure(fig int, reps int) Experiment {
	eagerSweep := sweep(0, 30*time.Microsecond, 13)
	rndvSweep := sweep(0, 1750*time.Microsecond, 15)
	e := Experiment{Reps: reps}
	switch fig {
	case 3:
		e.Pair, e.Protocol, e.MsgSize = IsendIrecv, mpi.PipelinedRDMA, 10<<10
		e.ComputePoints = eagerSweep
	case 4:
		e.Pair, e.Protocol, e.MsgSize = IsendRecv, mpi.PipelinedRDMA, 1<<20
		e.ComputePoints = rndvSweep
	case 5:
		e.Pair, e.Protocol, e.MsgSize = IsendRecv, mpi.DirectRDMARead, 1<<20
		e.ComputePoints = rndvSweep
	case 6:
		e.Pair, e.Protocol, e.MsgSize = SendIrecv, mpi.PipelinedRDMA, 1<<20
		e.ComputePoints = rndvSweep
	case 7:
		e.Pair, e.Protocol, e.MsgSize = SendIrecv, mpi.DirectRDMARead, 1<<20
		e.ComputePoints = rndvSweep
	case 8:
		e.Pair, e.Protocol, e.MsgSize = IsendIrecv, mpi.PipelinedRDMA, 1<<20
		e.ComputePoints = rndvSweep
	case 9:
		e.Pair, e.Protocol, e.MsgSize = IsendIrecv, mpi.DirectRDMARead, 1<<20
		e.ComputePoints = rndvSweep
	default:
		panic(fmt.Sprintf("micro: no paper figure %d", fig))
	}
	return e
}

// sweep returns n evenly spaced durations from lo to hi inclusive.
func sweep(lo, hi time.Duration, n int) []time.Duration {
	if n < 2 {
		panic("micro: sweep needs at least 2 points")
	}
	out := make([]time.Duration, n)
	step := (hi - lo) / time.Duration(n-1)
	for i := range out {
		out[i] = lo + time.Duration(i)*step
	}
	return out
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
	r.PushRegion(regionName)
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
