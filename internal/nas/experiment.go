package nas

import (
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/progress"
	"ovlp/internal/trace"
)

// This file is the experiment harness behind the paper's Sec. 4
// figures: it runs a benchmark on a fresh simulated cluster and
// extracts the measures the figures plot. As in the paper, overlap
// percentages are reported for process 0.

// OverlapResult is one benchmark characterization — a bar of
// Figs. 10-13 / 19.
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

// Options refines a characterization run beyond the common case.
type Options struct {
	// Protocol selects the library flavour: the paper pairs BT and CG
	// with Open MPI (PipelinedRDMA) and LU, FT and SP with MVAPICH2
	// (DirectRDMARead).
	Protocol mpi.LongProtocol
	// MaxIters caps the benchmark's iterations (0 = full).
	MaxIters int
	// HWTimestamps enables the precise NIC-time-stamp mode.
	HWTimestamps bool
	// Faults, when non-nil and active, injects deterministic fabric
	// faults; the run then uses reliable delivery (see
	// cluster.Config.Faults).
	Faults *fabric.FaultPlan
	// Trace, when non-nil, traces the run (see cluster.Config.Trace).
	Trace *trace.Tracer
	// Overlap selects the overlapped-collective benchmark variants
	// (see Params.Overlap).
	Overlap bool
	// CollAlgo and CollChunk pick the collective schedule algorithm
	// and pipelining chunk (see mpi.Config).
	CollAlgo  coll.Algo
	CollChunk int
	// Progress configures the asynchronous progress engine driving
	// nonblocking collectives (see mpi.Config.Progress).
	Progress progress.Config
	// Backend selects the execution substrate (see
	// cluster.Config.Backend); the default is the virtual kernel.
	Backend cluster.Backend
}

// CharacterizeAllReports runs one MPI benchmark instrumented and
// returns every rank's report, for cross-rank aggregation or saving
// per-process output files, with process 0's overlap measures.
func CharacterizeAllReports(name string, class Class, procs int, opt Options) ([]*overlap.Report, OverlapResult) {
	res := cluster.Run(cluster.Config{
		Procs:   procs,
		Backend: opt.Backend,
		MPI: mpi.Config{
			Protocol:     opt.Protocol,
			HWTimestamps: opt.HWTimestamps,
			Instrument:   &mpi.InstrumentConfig{},
			CollAlgo:     opt.CollAlgo,
			CollChunk:    opt.CollChunk,
			Progress:     opt.Progress,
		},
		Faults: opt.Faults,
		Trace:  opt.Trace,
	}, func(r *mpi.Rank) {
		Run(name, r, Params{Class: class, MaxIters: opt.MaxIters, Overlap: opt.Overlap})
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

// SPResult captures one SP run of the Sec. 4.3 case study: overlap
// bounds for the explicit overlapping section and for the complete
// code, plus the total MPI time — the ingredients of Figs. 14-18.
type SPResult struct {
	Class    Class
	Procs    int
	Modified bool
	// Section bounds: the x/y/z_solve sweeps only (Figs. 14-15).
	SectionMinPct, SectionMaxPct float64
	// Whole-code bounds (Figs. 16-17).
	TotalMinPct, TotalMaxPct float64
	// MPITime is process 0's aggregate library time (Fig. 18).
	MPITime  time.Duration
	Duration time.Duration
	// Reports holds every rank's instrumentation report, for offline
	// aggregation or profiling.
	Reports []*overlap.Report
}

// CharacterizeSP runs SP (original or Iprobe-modified) under the
// direct-RDMA-read library (MVAPICH2, as in the paper) and reports the
// case-study measures. opt.Protocol is ignored: the case study fixes
// direct RDMA read.
func CharacterizeSP(class Class, procs int, modified bool, opt Options) SPResult {
	res := cluster.Run(cluster.Config{
		Procs:   procs,
		Backend: opt.Backend,
		MPI: mpi.Config{
			Protocol:   mpi.DirectRDMARead,
			Instrument: &mpi.InstrumentConfig{},
		},
		Faults: opt.Faults,
		Trace:  opt.Trace,
	}, func(r *mpi.Rank) {
		RunSP(r, SPParams{
			Params:   Params{Class: class, MaxIters: opt.MaxIters},
			Modified: modified,
		})
	})
	rep := res.Reports[0]
	out := SPResult{
		Class:    class,
		Procs:    procs,
		Modified: modified,
		MPITime:  res.MPITimes[0],
		Duration: res.Duration,
		Reports:  res.Reports,
	}
	if sec := rep.Region(RegionSPOverlap); sec != nil {
		out.SectionMinPct = sec.Total.MinPercent()
		out.SectionMaxPct = sec.Total.MaxPercent()
	}
	tot := rep.Total()
	out.TotalMinPct = tot.MinPercent()
	out.TotalMaxPct = tot.MaxPercent()
	return out
}

// CharacterizeMGARMCI runs the one-sided MG variant and reports
// process 0's overlap measures (Fig. 19). Only MaxIters, Faults, Trace
// and Backend apply to the one-sided library. A failed run panics.
func CharacterizeMGARMCI(class Class, procs int, variant MGVariant, opt Options) OverlapResult {
	res, err := cluster.RunARMCI(cluster.ARMCIConfig{
		Procs:   procs,
		Backend: opt.Backend,
		ARMCI:   armci.Config{Instrument: &overlap.Instrument{}},
		Faults:  opt.Faults,
		Trace:   opt.Trace,
	}, func(pr *armci.Proc) {
		RunMGARMCI(pr, Params{Class: class, MaxIters: opt.MaxIters}, variant)
	})
	if err != nil {
		panic(err)
	}
	return summarize("MG/"+variant.String(), class, procs, res.Reports[0], res.Duration, res.LibTimes[0])
}

// OverheadResult compares instrumented and uninstrumented run times of
// one benchmark (Fig. 20).
type OverheadResult struct {
	Benchmark    string
	Class        Class
	Procs        int
	Plain        time.Duration // uninstrumented virtual run time
	Instrumented time.Duration // with instrumentation costs modelled
	OverheadPct  float64
}

// MeasureOverhead runs a benchmark twice — uninstrumented, and with
// the instrumentation's modelled CPU costs charged to the ranks — and
// reports the run-time overhead percentage. Only Protocol, MaxIters
// and Backend apply; on the real backend the comparison is of actual
// wall-clock run times.
func MeasureOverhead(name string, class Class, procs int, opt Options) OverheadResult {
	run := func(instr *mpi.InstrumentConfig) time.Duration {
		res := cluster.Run(cluster.Config{
			Procs:   procs,
			Backend: opt.Backend,
			MPI:     mpi.Config{Protocol: opt.Protocol, Instrument: instr},
		}, func(r *mpi.Rank) {
			Run(name, r, Params{Class: class, MaxIters: opt.MaxIters})
		})
		return res.Duration
	}
	plain := run(nil)
	instrumented := run(&mpi.InstrumentConfig{ModelCost: true})
	return OverheadResult{
		Benchmark:    name,
		Class:        class,
		Procs:        procs,
		Plain:        plain,
		Instrumented: instrumented,
		OverheadPct:  100 * (float64(instrumented) - float64(plain)) / float64(plain),
	}
}
