package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/diagnose"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/profile"
	"ovlp/internal/timeres"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// Smoke-mode caps: CI runs the whole corpus quickly by shrinking the
// machine and the iteration counts while keeping every scenario's
// structure — workload mix, chaos schedule, assertion set — intact.
const (
	smokeProcs = 4
	smokeReps  = 5
	smokeIters = 2
)

// DefaultDeadline bounds scenarios that do not declare their own.
const DefaultDeadline = 10 * time.Second

// Opts parameterizes one engine run.
type Opts struct {
	// Smoke shrinks the run for CI: procs capped at 4 (but never below
	// the scenario's structural minimum), reps at 5, iterations at 2.
	// Golden-hash assertions are skipped, since the bytes legitimately
	// differ from the full-size run's.
	Smoke bool
	// TimeRes attaches the time-resolved analyzer even when no
	// time_resolved assertion asks for it, so RunResult.TimeRes carries
	// a snapshot (cmd/scenario -timeresolved sets it).
	TimeRes bool
	// Sink, when non-nil, is attached to the run's tracer and observes
	// every trace record as it is emitted (cmd/ovltop's live console).
	// It never alters the run's bytes, and determinism reruns strip it.
	Sink trace.Sink
	// Findings runs the diagnosis engine even when no finding assertion
	// asks for it, so RunResult.Findings carries a report
	// (cmd/scenario -findings sets it). Implies the time-resolved
	// analyzer.
	Findings bool
	// Backend selects the execution substrate (see
	// cluster.Config.Backend). On the real backend the hash and
	// determinism assertions are skipped with a named reason — wall
	// clocks are not replayable; everything else, chaos and crash
	// plans included, runs as it does on the virtual one.
	Backend cluster.Backend
}

// RunResult is everything one engine run produces: the raw cluster
// observations, the captured per-rank instrumentation streams, the
// offline profile, and the deterministic artifacts (Chrome trace
// bytes, run-report JSON) with their hashes.
type RunResult struct {
	Scenario *Scenario
	Opts     Opts
	// Procs is the machine size actually used (== Scenario.Procs except
	// under smoke clamping).
	Procs int

	Res cluster.Result
	// FT carries the fault-tolerant runner's observations when the
	// scenario declared crashes or a recovery block (nil otherwise).
	FT *cluster.FTResult
	// Err is the run's aggregate error: nil, a *cluster.RunErrors, or a
	// bare simulation error (deadlock). Planned crash-stop failures are
	// already filtered out by the FT runner; an expected-error assertion
	// can make a non-nil Err a passing outcome.
	Err error
	// Events holds each rank's raw instrumentation event stream (the
	// oracle's input).
	Events []overlap.EventLog
	// Profile is the offline blame analysis (nil when it could not be
	// produced, e.g. a run wedged before emitting any stream).
	Profile *profile.Profile
	// TimeRes is the windowed efficiency snapshot, present when the
	// scenario has time_resolved assertions or Opts.TimeRes was set
	// (nil when the stream could not be replayed). It is deliberately
	// NOT part of the run report, so golden files are unaffected.
	TimeRes *timeres.Snapshot
	// Findings is the diagnosis engine's report, present when the
	// scenario has finding assertions or Opts.Findings was set. Like
	// TimeRes it stays out of the run report: its own JSON is the
	// golden artifact (scenarios/golden/<name>.findings.json).
	Findings *diagnose.Report
	// Skips lists the assertions Evaluate deliberately did not check
	// for this run, each with a named reason (smoke shrinkage,
	// real-clock nondeterminism). Skips stay out of the run report so
	// golden files are unaffected; they exist so a skipped check is
	// visible instead of silently passing.
	Skips []Skip

	TraceHash   string
	ReportBytes []byte
	ReportHash  string
}

// Run executes the scenario once. The run is a pure function of
// (scenario, opts): identical inputs produce the same TraceHash and
// byte-identical ReportBytes. Errors returned here are engine-level
// (invalid scenario); the workload's own failures land in
// RunResult.Err where assertions can inspect them.
func Run(s *Scenario, opts Opts) (*RunResult, error) {
	rr, tres, err := simulate(s, opts, true)
	if err != nil {
		return nil, err
	}

	// Best-effort like the profile: a stream the replay rejects leaves
	// TimeRes nil and the time_resolved assertions report its absence
	// as their own violation.
	if tres != nil {
		tres.SetTable(rr.Res.Calib)
		tres.Finalize(rr.Res.Duration)
		if tres.Err() == nil {
			rr.TimeRes = tres.Snapshot()
		}
	}

	if opts.Findings || s.wantsFindings() {
		rr.Findings = diagnoseRun(rr)
	}

	if rr.ReportBytes, err = encodeReport(rr); err != nil {
		return nil, err
	}
	rr.ReportHash = hashBytes(rr.ReportBytes)
	return rr, nil
}

// simulate is what Run and the determinism re-run share, and all that
// TraceHash and ReportBytes depend on: one simulation of s under a
// fresh tracer, the trace exported straight into a sha256 hasher — no
// run keeps the document — and the offline profile. The result carries
// no report yet.
//
// primary additionally attaches what only Run's callers read and no
// artifact byte depends on: the per-rank Events capture (a passive
// monitor tap, the oracle's input), the time-resolved analyzer (a
// trace sink, returned for Run to finalize), opts.Sink and the
// profile's critical path.
func simulate(s *Scenario, opts Opts, primary bool) (*RunResult, *timeres.Analyzer, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	procs := s.Procs
	if opts.Smoke && procs > smokeProcs {
		procs = smokeProcs
		if mp := s.MinProcs(); procs < mp {
			procs = mp
		}
		// Never shrink onto a machine the workload cannot use (NPB grid
		// constraints); s.Procs itself validated, so this terminates.
		for procs < s.Procs && !s.Workload.procsOK(procs) {
			procs++
		}
	}
	mpiCfg, err := s.mpiConfig()
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	plan, err := s.FaultPlan()
	if err != nil {
		return nil, nil, err
	}

	tracer := trace.New(trace.Options{})
	mpiCfg.Instrument = &mpi.InstrumentConfig{}
	var events []overlap.EventLog
	var tres *timeres.Analyzer
	if primary {
		events = make([]overlap.EventLog, procs)
		mpiCfg.Instrument.SinkFor = func(rank int) overlap.Sink { return &events[rank] }
		if opts.TimeRes || opts.Findings || s.wantsTimeRes() {
			tres = timeres.New(timeres.Options{Window: s.timeResWindow()})
			tracer.AddSink(tres)
		}
		tracer.AddSink(opts.Sink) // nil-safe no-op when unset
	}
	deadline := s.Deadline.D()
	if deadline <= 0 {
		deadline = DefaultDeadline
	}
	cfg := cluster.Config{
		Procs:       procs,
		Backend:     opts.Backend,
		MPI:         mpiCfg,
		RecordTruth: true,
		Faults:      plan,
		Deadline:    deadline,
		Trace:       tracer,
	}

	var res cluster.Result
	var runErr error
	var ftres *cluster.FTResult
	if s.wantsFT() {
		cfg.Crashes = s.crashPlan()
		wl, werr := s.Workload.checkpointable(opts.Smoke)
		if werr != nil {
			return nil, nil, fmt.Errorf("scenario %s: %w", s.Name, werr)
		}
		ft, ferr := cluster.RunFT(cfg, s.ftOptions(), wl)
		res, runErr, ftres = ft.Result, ferr, &ft
	} else {
		res, runErr = cluster.RunE(cfg, s.Workload.program(opts.Smoke))
	}

	rr := &RunResult{
		Scenario: s,
		Opts:     opts,
		Procs:    procs,
		Res:      res,
		FT:       ftres,
		Err:      runErr,
		Events:   events,
	}
	h := sha256.New()
	_ = tracer.WriteChrome(h) // a hash.Hash never returns a write error
	rr.TraceHash = hexDigest(h.Sum(nil))

	// The offline profile is best-effort: a run that wedged at t=0 may
	// not have enough stream to analyze, and assertions that need the
	// profile report its absence as their own violation. The report
	// reads the profile's totals only, so the re-run walks no critical
	// path.
	analyze := profile.Analyze
	if !primary {
		analyze = profile.AnalyzeTransfers
	}
	if p, err := analyze(profile.FromTracer(tracer, res.Calib, res.Reports)); err == nil {
		rr.Profile = p
	}
	// Nothing past this point holds a record slice — the profile, the
	// analyzer and any opts.Sink copied what they keep — so the next
	// run may flatten into this one's memory.
	tracer.Release()
	return rr, tres, nil
}

// encodeReport renders the run report of a result whose TraceHash is
// set.
func encodeReport(rr *RunResult) ([]byte, error) {
	b, err := buildReport(rr).encode()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: report encode: %w", rr.Scenario.Name, err)
	}
	return b, nil
}

// crashPlan compiles the declared crash list onto the fabric's plan.
func (s *Scenario) crashPlan() *fabric.CrashPlan {
	if len(s.Crashes) == 0 {
		return nil
	}
	p := &fabric.CrashPlan{}
	for _, cr := range s.Crashes {
		p.Crashes = append(p.Crashes, fabric.Crash{Node: fabric.NodeID(cr.Node), At: vtime.Time(cr.At)})
	}
	return p
}

// ftOptions maps the recovery block onto cluster.FTOptions.
func (s *Scenario) ftOptions() cluster.FTOptions {
	opt := cluster.FTOptions{Mode: s.recoveryMode()}
	if r := s.Recovery; r != nil {
		opt.CheckpointEvery = r.CheckpointEvery
		opt.MinProcs = r.MinProcs
		opt.Heartbeat = r.Heartbeat.D()
	}
	return opt
}

// recoveryMode returns the declared mode (validated earlier), with
// shrink-continue the default.
func (s *Scenario) recoveryMode() cluster.RecoveryMode {
	if s.Recovery != nil {
		if m, err := parseRecoveryMode(s.Recovery.Mode); err == nil {
			return m
		}
	}
	return cluster.ShrinkContinue
}

// diagnoseRun feeds the run's artifacts to the diagnosis engine: the
// blame profile, the windowed snapshot, per-rank retransmit counters
// and structured errors, the workload's progress mode, and the
// declared chaos schedule as labeled fault intervals so findings can
// cite their cause.
func diagnoseRun(rr *RunResult) *diagnose.Report {
	s := rr.Scenario
	in := diagnose.Input{
		Profile:      rr.Profile,
		TimeRes:      rr.TimeRes,
		Duration:     rr.Res.Duration,
		Procs:        rr.Procs,
		ProgressMode: s.Workload.Progress,
	}
	for _, rs := range rr.Res.RelStats {
		in.Retransmits = append(in.Retransmits, rs.Retransmits+rs.Reposts)
	}
	for _, err := range rr.Res.RankErrors {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		in.Errors = append(in.Errors, msg)
	}
	for i := range s.Chaos {
		ev := &s.Chaos[i]
		label := ev.Label
		if label == "" {
			label = fmt.Sprintf("chaos[%d]", i)
		}
		in.Faults = append(in.Faults, diagnose.Interval{
			Label: label, Start: ev.At.D(), End: ev.Clear.D(),
		})
	}
	for i, st := range s.Stalls {
		iv := diagnose.Interval{
			Label: fmt.Sprintf("dma-stall[%d] node %d", i, st.Node),
			Start: st.Start.D(),
		}
		if !st.Forever {
			iv.End = st.Start.D() + st.Dur.D()
		}
		in.Faults = append(in.Faults, iv)
	}
	for _, cr := range s.Crashes {
		in.Crashes = append(in.Crashes, diagnose.Crash{Rank: cr.Node, At: cr.At.D()})
	}
	if ft := rr.FT; ft != nil {
		in.Recovery = &diagnose.Recovery{
			Mode:          s.recoveryMode().String(),
			Epochs:        ft.Epochs,
			Failed:        ft.Failed,
			Survivors:     len(ft.Survivors),
			Checkpoints:   ft.Checkpoints,
			ReplayedSteps: ft.ReplayedSteps,
			Completed:     ft.Completed,
		}
	}
	return diagnose.Analyze(in)
}

// realClock reports whether the run executed on the wall clock, which
// voids the engine's byte-exact determinism contract.
func (rr *RunResult) realClock() bool { return rr.Opts.Backend == cluster.BackendReal }

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hexDigest(sum[:])
}

// hexDigest spells a sha256 sum in hex; the string is its one allocation.
func hexDigest(sum []byte) string {
	var buf [2 * sha256.Size]byte
	return string(hex.AppendEncode(buf[:0], sum))
}
