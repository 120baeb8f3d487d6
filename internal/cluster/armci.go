package cluster

import (
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/calib"
	"ovlp/internal/clock"
	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
)

// ARMCIConfig describes a one-sided (ARMCI) run.
type ARMCIConfig struct {
	// Procs is the number of processes (one per node).
	Procs int
	// Backend selects the execution substrate (see Config.Backend).
	Backend Backend
	// Clock drives a BackendReal run; nil selects clock.Real().
	Clock clock.Clock
	// Cost is the fabric cost model; zero selects the default.
	Cost fabric.CostModel
	// ARMCI configures the library; a nil Instrument.Table is filled
	// by calibration, as for MPI runs.
	ARMCI armci.Config
	// RecordTruth retains the ground-truth transfer log (see
	// Config.RecordTruth).
	RecordTruth bool
	// Faults optionally injects deterministic fabric faults; an
	// active plan fills a nil ARMCI.Reliable with defaults, as for
	// MPI runs.
	Faults *fabric.FaultPlan
	// Deadline, when positive, bounds the virtual run time (see
	// Config.Deadline).
	Deadline time.Duration
	// Trace, when non-nil, traces the whole run (see Config.Trace).
	Trace *trace.Tracer
}

// ARMCIResult collects the observations of an ARMCI run.
type ARMCIResult struct {
	Reports    []*overlap.Report
	Duration   time.Duration
	LibTimes   []time.Duration
	Transfers  []fabric.Transfer
	FaultStats fabric.FaultStats
	RelStats   []fabric.RelStats
	// Metrics is the end-of-run metrics snapshot (nil when untraced).
	Metrics *trace.Snapshot
	// RankErrors holds each process's recovered structured failure
	// (nil entries for processes that finished cleanly); see
	// Result.RankErrors.
	RankErrors []error
}

// RunARMCI executes main on every process of a fresh machine using the
// one-sided library. The machine is built as RunE builds it (see
// build); failures — retry exhaustion, deadlock, a process's
// structured communication error — come back as errors, with the
// observations made up to them, as from RunE.
func RunARMCI(cfg ARMCIConfig, main func(p *armci.Proc)) (ARMCIResult, error) {
	var table **calib.Table
	if ic := cfg.ARMCI.Instrument; ic != nil {
		table = &ic.Table
	}
	sim, fab, err := build(&Config{
		Procs:       cfg.Procs,
		Backend:     cfg.Backend,
		Clock:       cfg.Clock,
		Cost:        cfg.Cost,
		RecordTruth: cfg.RecordTruth,
		Faults:      cfg.Faults,
		Deadline:    cfg.Deadline,
		Trace:       cfg.Trace,
	}, table, &cfg.ARMCI.Reliable)
	if err != nil {
		return ARMCIResult{}, err
	}
	if cfg.Trace != nil {
		cfg.ARMCI.Tracer = cfg.Trace
	}
	world := armci.NewWorld(sim, fab, cfg.ARMCI)

	procs := make([]*armci.Proc, 0, cfg.Procs)
	world.Start(func(p *armci.Proc) {
		procs = append(procs, p)
		main(p)
	})
	end, simErr := sim.RunE()
	rankErrs := world.RankErrors()
	err = combineErrors(rankErrs, simErr)

	res := ARMCIResult{
		Reports:    world.Reports(),
		Duration:   end.Duration(),
		LibTimes:   make([]time.Duration, cfg.Procs),
		FaultStats: fab.FaultStats(),
		RelStats:   make([]fabric.RelStats, cfg.Procs),
		RankErrors: rankErrs,
	}
	for _, p := range procs {
		res.LibTimes[p.ID()] = p.LibTime()
		res.RelStats[p.ID()] = p.RelStats()
	}
	res.Transfers = fab.Transfers() // nil unless RecordTruth had the fabric retain it
	res.Metrics = foldMetrics(cfg.Trace, res.Duration, res.FaultStats, res.RelStats, res.Reports)
	return res, err
}
