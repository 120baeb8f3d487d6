package nas

import (
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
)

// This file is the experiment harness behind the paper's Sec. 4
// figures: it runs a benchmark on a fresh simulated cluster and
// extracts the measures the figures plot. As in the paper, overlap
// percentages are reported for process 0.

// OverlapResult is one benchmark characterization — a bar of
// Figs. 10-13.
type OverlapResult struct {
	Benchmark string
	Class     Class
	Procs     int
	// MinPct and MaxPct are process 0's whole-run overlap bounds.
	MinPct, MaxPct float64
	// Transfers and DataTransferTime summarize process 0's traffic.
	Transfers        int
	DataTransferTime time.Duration
	// Duration is total virtual run time; MPITime is process 0's time
	// inside the library.
	Duration time.Duration
	MPITime  time.Duration
}

// Options refines a characterization run beyond the common case. The
// sweep specs (internal/scenario) run every other variation.
type Options struct {
	// Protocol selects the library flavour: the paper pairs BT and CG
	// with Open MPI (PipelinedRDMA) and LU, FT and SP with MVAPICH2
	// (DirectRDMARead).
	Protocol mpi.LongProtocol
	// MaxIters caps the benchmark's iterations (0 = full).
	MaxIters int
	// Faults, when non-nil and active, injects deterministic fabric
	// faults; the run then uses reliable delivery (see
	// cluster.Config.Faults).
	Faults *fabric.FaultPlan
	// Trace, when non-nil, traces the run (see cluster.Config.Trace).
	Trace *trace.Tracer
}

// CharacterizeAllReports runs one MPI benchmark instrumented and
// returns every rank's report, for cross-rank aggregation or saving
// per-process output files, with process 0's overlap measures.
func CharacterizeAllReports(name string, class Class, procs int, opt Options) ([]*overlap.Report, OverlapResult) {
	res := cluster.Run(cluster.Config{
		Procs: procs,
		MPI: mpi.Config{
			Protocol:   opt.Protocol,
			Instrument: &mpi.InstrumentConfig{},
		},
		Faults: opt.Faults,
		Trace:  opt.Trace,
	}, func(r *mpi.Rank) {
		Run(name, r, Params{Class: class, MaxIters: opt.MaxIters})
	})
	return res.Reports, summarize(name, class, procs, res.Reports[0], res.Duration, res.MPITimes[0])
}

func summarize(name string, class Class, procs int, rep *overlap.Report, dur, mpiTime time.Duration) OverlapResult {
	tot := rep.Total()
	return OverlapResult{
		Benchmark:        name,
		Class:            class,
		Procs:            procs,
		MinPct:           tot.MinPercent(),
		MaxPct:           tot.MaxPercent(),
		Transfers:        tot.Count,
		DataTransferTime: tot.DataTransferTime,
		Duration:         dur,
		MPITime:          mpiTime,
	}
}
