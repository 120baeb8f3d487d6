package cluster

import (
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/calib"
	"ovlp/internal/clock"
	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
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
// one-sided library. Errors panic; use RunARMCIE to receive them.
func RunARMCI(cfg ARMCIConfig, main func(p *armci.Proc)) ARMCIResult {
	res, err := RunARMCIE(cfg, main)
	if err != nil {
		panic(err)
	}
	return res
}

// RunARMCIE is RunARMCI returning simulation failures (retry
// exhaustion, deadlock) as errors instead of panicking.
func RunARMCIE(cfg ARMCIConfig, main func(p *armci.Proc)) (ARMCIResult, error) {
	if cfg.Procs <= 0 {
		panic("cluster: Procs must be positive")
	}
	if (cfg.Cost == fabric.CostModel{}) {
		cfg.Cost = fabric.DefaultCostModel()
	}
	if ic := cfg.ARMCI.Instrument; ic != nil {
		if err := checkTableDomain(ic.Table, cfg.Backend, cfg.Clock); err != nil {
			return ARMCIResult{}, err
		}
		if ic.Table == nil {
			ic.Table = CalibrateBackend(cfg.Backend, cfg.Clock, cfg.Cost, calib.StandardSizes(), 5)
		}
	}
	if cfg.Faults.Active() && cfg.ARMCI.Reliable == nil {
		cfg.ARMCI.Reliable = &fabric.ReliableParams{}
	}
	sim := newSim(cfg.Backend, cfg.Clock)
	fab := fabric.New(sim, cfg.Procs, cfg.Cost)
	fab.RetainTruth(cfg.RecordTruth)
	if cfg.Faults.Active() {
		if err := fab.SetFaults(cfg.Faults); err != nil {
			return ARMCIResult{}, err
		}
	}
	if cfg.Deadline > 0 {
		sim.SetDeadline(vtime.Time(cfg.Deadline))
	}
	if cfg.Trace != nil {
		sim.SetObserver(cfg.Trace.KernelObserver())
		fab.SetTrace(cfg.Trace)
		cfg.ARMCI.Tracer = cfg.Trace
		cfg.Trace.SetClockDomain(runDomain(cfg.Backend, cfg.Clock))
	}
	world := armci.NewWorld(sim, fab, cfg.ARMCI)

	procs := make([]*armci.Proc, 0, cfg.Procs)
	world.Start(func(p *armci.Proc) {
		procs = append(procs, p)
		main(p)
	})
	end, simErr := sim.RunE()
	rankErrs := world.RankErrors()
	err := combineErrors(rankErrs, simErr)

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
