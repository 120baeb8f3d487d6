package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/diagnose"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/overlap"
	"ovlp/internal/profile"
	"ovlp/internal/progress"
	"ovlp/internal/scenario"
	"ovlp/internal/timeres"
	"ovlp/internal/trace"
)

// A workload is one closed-loop, single-client stream of operations
// against the simulator. setup does everything that precedes the first
// operation (its host time is the setup_s metric) and returns the
// instance the operations run on. The programs under test only ever
// see the inputs setup generated — never the seed or the workload
// name.
//
// BENCHMARK.json records why each workload exists.
type workload struct {
	name  string
	setup func(env *env) (instance, error)
}

// env is what a workload's set-up may read.
type env struct {
	root string // repository root (scenarios/, bench/)
	seed int64
	exp  *expected
	// write makes set-up record what it observes into exp instead of
	// comparing against it (-write-expected).
	write bool
}

// instance is a set-up workload.
type instance interface {
	// cycle is the number of consecutive operations that make one
	// pass over the workload's configurations; the timed window ends
	// on a pass boundary so every window measures the same mix.
	cycle() int
	// op runs operation i, recording a span around every call into a
	// layer when tr is non-nil, and returns how many pinned values it
	// verified. A mismatch is an error: the operation failed.
	op(i int, tr *spanRec) (checks int, err error)
	// events is the exact number of trace records operation i emits
	// (for trace_analysis: ingests), counted once in set-up.
	events(i int) int64
	// transfers is the exact number of ground-truth wire transfers of
	// operation i.
	transfers(i int) int64
}

func workloads() []workload {
	return []workload{
		{name: "nas_lu", setup: setupNasLU},
		{name: "coll_sweep", setup: setupCollSweep},
		{name: "scenario_corpus", setup: setupScenarioCorpus},
		{name: "trace_analysis", setup: setupTraceAnalysis},
	}
}

// --- simulated programs ---------------------------------------------

// program is a message-passing program on a machine configuration,
// before any instrumentation or tracing is switched on — the unit the
// ablation ladder adds layers to.
type program struct {
	name string
	cfg  cluster.Config
	body func(r *mpi.Rank)
}

// luProgram is what nas.CharacterizeAllReports(LU, ClassA, 8,
// {DirectRDMARead, MaxIters: 3}) runs.
func luProgram() program {
	return program{
		name: "lu",
		cfg:  cluster.Config{Procs: 8, MPI: mpi.Config{Protocol: mpi.DirectRDMARead}},
		body: func(r *mpi.Rank) {
			nas.Run(nas.LU, r, nas.Params{Class: nas.ClassA, MaxIters: 3})
		},
	}
}

// collReps is how many overlapped collectives one coll_sweep
// operation issues.
const collReps = 30

// collProgram overlaps reps Iallreduce(64 KiB) with 200µs of compute
// on 16 ranks — regress.RunCollSuite's body on four times the ranks.
func collProgram(algo coll.Algo, mode progress.Mode, reps int) program {
	return program{
		name: algo.String() + "-" + mode.String(),
		cfg: cluster.Config{Procs: 16, MPI: mpi.Config{
			CollAlgo: algo,
			Progress: progress.Config{Mode: mode},
		}},
		body: func(r *mpi.Rank) {
			for i := 0; i < reps; i++ {
				cr := r.Iallreduce(64 << 10)
				r.Compute(200 * time.Microsecond)
				r.WaitColl(cr)
			}
		},
	}
}

func collPrograms() []program {
	var out []program
	for _, algo := range []coll.Algo{coll.Ring, coll.RecDouble} {
		for _, mode := range []progress.Mode{progress.Manual, progress.Piggyback, progress.Thread} {
			out = append(out, collProgram(algo, mode, collReps))
		}
	}
	return out
}

// instrumented returns p's configuration with the overlap monitor on.
// A nil table makes cluster.Run calibrate first, as the CLI drivers
// do on every run.
func (p program) instrumented(table *calib.Table) cluster.Config {
	cfg := p.cfg
	cfg.MPI.Instrument = &mpi.InstrumentConfig{Table: table}
	return cfg
}

// countSink counts trace records as they are emitted.
type countSink struct{ n int64 }

func (c *countSink) TraceRec(*trace.Track, trace.Rec) { c.n++ }

// countingTracer retains nothing and counts every record.
func countingTracer() (*trace.Tracer, *countSink) {
	tr := trace.New(trace.Options{MetricsOnly: true})
	c := &countSink{}
	tr.AddSink(c)
	return tr, c
}

// runPin is the set of simulated statistics a cluster run must
// reproduce bit for bit.
type runPin struct {
	DurationNS     int64            `json:"duration_ns"`
	Rank0MinPct    float64          `json:"rank0_min_pct"`
	Rank0MaxPct    float64          `json:"rank0_max_pct"`
	Rank0Transfers int              `json:"rank0_transfers"`
	Sum            overlap.Measures `json:"all_rank_sum"`
}

// runPinChecks is the number of values a runPin comparison verifies.
const runPinChecks = 5

func pinOf(dur time.Duration, reports []*overlap.Report) runPin {
	var sum overlap.Measures
	for _, rep := range reports {
		sum.Add(rep.Total())
	}
	t0 := reports[0].Total()
	return runPin{
		DurationNS:     int64(dur),
		Rank0MinPct:    t0.MinPercent(),
		Rank0MaxPct:    t0.MaxPercent(),
		Rank0Transfers: t0.Count,
		Sum:            sum,
	}
}

func checkPin(what string, got, want runPin) error {
	if got != want {
		return fmt.Errorf("%s: simulated statistics %+v, pinned %+v", what, got, want)
	}
	return nil
}

// census runs p once instrumented with a counting tracer and the
// ground-truth log on, and returns its pins and exact counts.
func census(p program) (pin runPin, events, transfers int64) {
	cfg := p.instrumented(nil)
	tr, c := countingTracer()
	cfg.Trace = tr
	cfg.RecordTruth = true
	res := cluster.Run(cfg, p.body)
	return pinOf(res.Duration, res.Reports), c.n, int64(len(res.Transfers))
}

// onePass is the instance plumbing of a workload whose every operation
// is the same: a pass is one operation, with fixed exact counts.
type onePass struct{ nEvents, nTransfer int64 }

func (o onePass) cycle() int          { return 1 }
func (o onePass) events(int) int64    { return o.nEvents }
func (o onePass) transfers(int) int64 { return o.nTransfer }

// --- nas_lu -----------------------------------------------------------

type nasLU struct {
	onePass
	want runPin
}

func setupNasLU(e *env) (instance, error) {
	pin, events, transfers := census(luProgram())
	if e.write {
		e.exp.NasLU = pin
	}
	return &nasLU{onePass{events, transfers}, e.exp.NasLU}, nil
}

func (w *nasLU) op(i int, tr *spanRec) (int, error) {
	s := tr.begin("nas.CharacterizeAllReports")
	reports, res := nas.CharacterizeAllReports(nas.LU, nas.ClassA, 8,
		nas.Options{Protocol: mpi.DirectRDMARead, MaxIters: 3})
	tr.end(s)
	return runPinChecks, checkPin("nas_lu", pinOf(res.Duration, reports), w.want)
}

// --- coll_sweep -------------------------------------------------------

type collSweep struct {
	progs     []program
	want      []runPin
	nEvents   []int64
	nTransfer []int64
}

func setupCollSweep(e *env) (instance, error) {
	w := &collSweep{progs: collPrograms()}
	if e.write {
		e.exp.CollSweep = map[string]runPin{}
	}
	for _, p := range w.progs {
		pin, events, transfers := census(p)
		if e.write {
			e.exp.CollSweep[p.name] = pin
		}
		want, ok := e.exp.CollSweep[p.name]
		if !ok {
			return nil, fmt.Errorf("coll_sweep: no pinned statistics for %s", p.name)
		}
		w.want = append(w.want, want)
		w.nEvents = append(w.nEvents, events)
		w.nTransfer = append(w.nTransfer, transfers)
	}
	return w, nil
}

func (w *collSweep) cycle() int            { return len(w.progs) }
func (w *collSweep) events(i int) int64    { return w.nEvents[i%len(w.progs)] }
func (w *collSweep) transfers(i int) int64 { return w.nTransfer[i%len(w.progs)] }
func (w *collSweep) op(i int, tr *spanRec) (int, error) {
	k := i % len(w.progs)
	p := w.progs[k]
	s := tr.begin("cluster.Run[" + p.name + "]")
	res := cluster.Run(p.instrumented(nil), p.body)
	tr.end(s)
	return runPinChecks, checkPin("coll_sweep "+p.name, pinOf(res.Duration, res.Reports), w.want[k])
}

// --- scenario_corpus --------------------------------------------------

// genStructureSeed fixes the *shape* of the eight generated scenarios
// (workload kind, ranks, repetitions, chaos archetype parameters), so
// a pass costs the same whatever --seed is and runs with different
// seeds stay comparable; --seed re-seeds their fault PRNGs, which
// changes which packets are lost but not how much work is asked for.
const (
	genStructureSeed = 0x539
	genCount         = 8
)

type scenarioCorpus struct {
	onePass
	dir  string
	seed int64
	want corpusPin
}

func setupScenarioCorpus(e *env) (instance, error) {
	w := &scenarioCorpus{dir: filepath.Join(e.root, "scenarios"), seed: e.seed, want: e.exp.ScenarioCorpus}
	// The census pass: the counting sink rides on Opts.Sink, which the
	// engine attaches to the primary run only (determinism re-runs shed
	// sinks), so the count is the records the scenarios' own traces hold.
	c := &countSink{}
	got, transfers, err := w.pass(nil, c)
	if err != nil {
		return nil, err
	}
	w.nEvents, w.nTransfer = c.n, transfers
	if e.write {
		e.exp.ScenarioCorpus = got
		w.want = got
	}
	return w, nil
}

// scenarioGroup names the span a scenario's Run is recorded under, so
// the traced run can split a pass into calm, chaos, fault-tolerance
// and generated shares. The committed corpus sorts as 00 (calm),
// 01-10 (chaos), 11-13 (crash recovery), then its gen-* files.
func scenarioGroup(i int) string {
	switch {
	case i == 0:
		return "scenario.Run[calm]"
	case i <= 10:
		return "scenario.Run[chaos]"
	case i <= 13:
		return "scenario.Run[ft]"
	}
	return "scenario.Run[gen]"
}

// pass loads the committed corpus, appends the generated scenarios,
// and runs and evaluates every one. It returns what the pins are
// compared with, the ground-truth transfer count, and the first
// assertion violation as an error.
func (w *scenarioCorpus) pass(tr *spanRec, sink trace.Sink) (got corpusPin, transfers int64, err error) {
	s := tr.begin("scenario.LoadDir")
	scs, err := scenario.LoadDir(w.dir)
	tr.end(s)
	if err != nil {
		return got, 0, err
	}
	got.Committed = len(scs)
	s = tr.begin("scenario.Generate")
	gen := scenario.Generate(genStructureSeed, genCount)
	tr.end(s)
	for i, g := range gen {
		g.Seed = w.seed*genCount + int64(i)
	}
	var first error
	for i, sc := range append(scs, gen...) {
		s = tr.begin(scenarioGroup(i))
		rr, err := scenario.Run(sc, scenario.Opts{Sink: sink})
		tr.end(s)
		if err != nil {
			return got, 0, err
		}
		s = tr.begin("scenario.Evaluate")
		v := scenario.Evaluate(rr)
		tr.end(s)
		if len(v) > 0 && first == nil {
			first = fmt.Errorf("scenario_corpus: %s", v[0])
		}
		got.Skips += len(rr.Skips)
		transfers += int64(len(rr.Res.Transfers))
	}
	return got, transfers, first
}

func (w *scenarioCorpus) op(i int, tr *spanRec) (int, error) {
	got, _, err := w.pass(tr, nil)
	// One check per scenario's assertions, plus the two pinned counts.
	checks := got.Committed + genCount + 2
	if err == nil && got != w.want {
		err = fmt.Errorf("scenario_corpus: %+v, pinned %+v", got, w.want)
	}
	return checks, err
}

// --- trace_analysis ---------------------------------------------------

// analysis is what one trace's pipeline produces, with the exact
// record counts of its input.
type analysis struct {
	run      diagnose.Run
	findings *diagnose.Report
	records  int64
	wire     int64
}

type traceAnalysis struct {
	onePass
	table  *calib.Table
	traces [2][]byte
	// want holds the hashes the in-memory FromTracer path produced in
	// set-up: profile and findings per side, then the diff.
	want [5]string
}

// lossyDropRate is the packet-loss rate of trace B.
const lossyDropRate = 0.02

// traceFixture is the pair of traced LU runs trace_analysis reads:
// side 0 clean, side 1 under seeded packet loss. The tracers are the
// in-memory form, traces the exported Chrome JSON of the same runs.
type traceFixture struct {
	table   *calib.Table
	tracers [2]*trace.Tracer
	reports [2][]*overlap.Report
	traces  [2][]byte
}

func buildTraces(seed int64) (*traceFixture, error) {
	fx := &traceFixture{table: cluster.Calibrate(fabric.CostModel{}, nil, 0)}
	plans := [2]*fabric.FaultPlan{nil, {Seed: seed, Default: fabric.LinkFaults{DropRate: lossyDropRate}}}
	for i, plan := range plans {
		tr := trace.New(trace.Options{})
		fx.reports[i], _ = nas.CharacterizeAllReports(nas.LU, nas.ClassA, 8,
			nas.Options{Protocol: mpi.DirectRDMARead, MaxIters: 3, Faults: plan, Trace: tr})
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			return nil, err
		}
		fx.tracers[i], fx.traces[i] = tr, buf.Bytes()
	}
	return fx, nil
}

// input is side i's in-memory analysis input.
func (fx *traceFixture) input(i int) profile.Input {
	return profile.FromTracer(fx.tracers[i], fx.table, fx.reports[i])
}

func setupTraceAnalysis(e *env) (instance, error) {
	fx, err := buildTraces(e.seed)
	if err != nil {
		return nil, err
	}
	w := &traceAnalysis{table: fx.table, traces: fx.traces}
	var sides [2]analysis
	for i := range sides {
		if sides[i], err = analyze(fx.input(i), sideLabel(i), nil); err != nil {
			return nil, err
		}
		w.nEvents += sides[i].records
		w.nTransfer += sides[i].wire
	}
	if w.want, err = analysisHashes(sides, nil); err != nil {
		return nil, err
	}
	pin := tracePin{
		CleanTraceSHA256:    sha(w.traces[0]),
		CleanProfileSHA256:  w.want[0],
		CleanFindingsSHA256: w.want[1],
		CleanRecords:        sides[0].records,
	}
	if e.write {
		e.exp.TraceAnalysis = pin
	}
	if pin != e.exp.TraceAnalysis {
		return nil, fmt.Errorf("trace_analysis set-up: clean trace %+v, pinned %+v", pin, e.exp.TraceAnalysis)
	}
	return w, nil
}

func sideLabel(i int) string { return string(rune('a' + i)) }

// analyze is ovldiff's per-trace pipeline plus the findings engine.
func analyze(in profile.Input, label string, tr *spanRec) (analysis, error) {
	if err := in.CheckNonEmpty(); err != nil {
		return analysis{}, err
	}
	a := analysis{wire: int64(len(in.Wire))}
	for i := range in.Ranks {
		a.records += int64(len(in.Ranks[i].Recs))
	}
	a.records += a.wire
	s := tr.begin("profile.Analyze")
	p, err := profile.Analyze(in)
	tr.end(s)
	if err != nil {
		return analysis{}, err
	}
	s = tr.begin("timeres.FromInput")
	snap, err := timeres.FromInput(in, timeres.Options{})
	tr.end(s)
	if err != nil {
		return analysis{}, err
	}
	s = tr.begin("diagnose.Analyze")
	a.findings = diagnose.Analyze(diagnose.Input{Profile: p, TimeRes: snap, Duration: p.Duration, Procs: p.Ranks})
	tr.end(s)
	a.run = diagnose.Run{Label: label, Profile: p, TimeRes: snap}
	return a, nil
}

// analysisHashes diffs the two sides and hashes every JSON artifact:
// profile and findings of each side, then the diff document.
func analysisHashes(sides [2]analysis, tr *spanRec) (h [5]string, err error) {
	s := tr.begin("diagnose.Diff")
	d, err := diagnose.Diff(sides[0].run, sides[1].run)
	tr.end(s)
	if err != nil {
		return h, err
	}
	var buf bytes.Buffer
	for i, side := range sides {
		s = tr.begin("profile.EncodeJSON")
		buf.Reset()
		err = side.run.Profile.EncodeJSON(&buf)
		h[2*i] = sha(buf.Bytes())
		tr.end(s)
		if err != nil {
			return h, err
		}
		s = tr.begin("diagnose.WriteJSON")
		buf.Reset()
		err = diagnose.WriteJSON(&buf, side.findings)
		h[2*i+1] = sha(buf.Bytes())
		tr.end(s)
		if err != nil {
			return h, err
		}
	}
	s = tr.begin("diagnose.WriteDiffJSON")
	buf.Reset()
	err = diagnose.WriteDiffJSON(&buf, d)
	h[4] = sha(buf.Bytes())
	tr.end(s)
	return h, err
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (w *traceAnalysis) op(i int, tr *spanRec) (int, error) {
	var sides [2]analysis
	for k := range sides {
		s := tr.begin("profile.FromChromeJSON")
		in, err := profile.FromChromeJSON(bytes.NewReader(w.traces[k]), w.table)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		if sides[k], err = analyze(in, sideLabel(k), tr); err != nil {
			return 0, err
		}
	}
	got, err := analysisHashes(sides, tr)
	if err != nil {
		return 0, err
	}
	s := tr.begin("check")
	defer tr.end(s)
	checks := len(got) + 1
	if got != w.want {
		return checks, fmt.Errorf("trace_analysis: artifact hashes %v differ from the in-memory path's %v", got, w.want)
	}
	self, err := diagnose.Diff(sides[0].run, sides[0].run)
	if err != nil {
		return checks, err
	}
	if self.GapDeltaNS != 0 || self.WallDeltaNS != 0 || len(self.Findings) != 0 {
		return checks, fmt.Errorf("trace_analysis: Diff(a, a) is not zero: gap %d wall %d findings %d",
			self.GapDeltaNS, self.WallDeltaNS, len(self.Findings))
	}
	return checks, nil
}

// --- pinned expectations ---------------------------------------------

type corpusPin struct {
	Committed int `json:"committed_scenarios"`
	Skips     int `json:"skipped_assertions"`
}

type tracePin struct {
	CleanTraceSHA256    string `json:"clean_trace_sha256"`
	CleanProfileSHA256  string `json:"clean_profile_sha256"`
	CleanFindingsSHA256 string `json:"clean_findings_sha256"`
	CleanRecords        int64  `json:"clean_records"`
}

// expected is bench/expected.json: the simulated statistics every
// operation must reproduce. Regenerate with -write-expected after a
// change that is meant to alter simulated behaviour.
type expected struct {
	NasLU          runPin            `json:"nas_lu"`
	CollSweep      map[string]runPin `json:"coll_sweep"`
	ScenarioCorpus corpusPin         `json:"scenario_corpus"`
	TraceAnalysis  tracePin          `json:"trace_analysis"`
}
