package main

import (
	"fmt"
	"io"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/micro"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/profile"
	"ovlp/internal/report"
	"ovlp/internal/trace"
)

// ftstudyMain measures what a crash-stop rank failure costs: it runs the
// fault-tolerant ring exchange twice — once failure-free, once under
// the -crash plan — and prints how the overlap bounds and the
// recovery blame (detect, agree, rollback, recompute) respond, plus
// the per-epoch overlap accounting of the crashed run. It is the
// experiment the in-situ instrumentation exists for: same workload,
// same seed, the only difference being the declared failure.
//
//	ovlp ftstudy -crash "2@800us" [-recover shrink-continue] [-checkpoint-every 1]
//	             [-heartbeat 0] [-procs 4] [-size 1048576] [-steps 10]
//	             [-compute 200us] [-retries 3]
//	             [-trace out.json] [-metrics] [-profile out.txt] [-diagnose -]
//
// -crash declares the kill plan (see ft.go); without it
// only the baseline row is printed. -recover picks what the survivors
// do after the agreed failure, and -retries bounds the reliable
// transport's retry budget — the crash detector primitive — so a
// smaller budget means faster detection and more truncated in-flight
// transfers at the epoch cut. The observability flags export the
// crashed run (the baseline when no crash was declared).
//
// Bad flags or an invalid crash plan exit 2 before any simulation
// starts; a failed run exits 1.
func ftstudyMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("ftstudy", stderr)
	procs := fs.Int("procs", 4, "ranks in the exchange ring")
	size := fs.Int("size", 1<<20, "exchanged message size in bytes")
	steps := fs.Int("steps", 10, "exchange steps (the recoverable work units)")
	compute := fs.Duration("compute", 200*time.Microsecond, "computation inserted per step")
	retries := fs.Int("retries", 3, "reliable-transport retry budget (smaller = faster crash detection)")
	ft := registerFT(fs)
	obs := registerObs(fs)
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail2 := failWith(stderr, "ftstudy", 2)
	fail := failWith(stderr, "ftstudy", 1)
	if *procs < 2 || *size <= 0 || *steps <= 0 || *compute < 0 || *retries == 0 {
		return fail2(fmt.Errorf("need -procs >= 2, positive -size/-steps, non-negative -compute and a non-zero -retries"))
	}
	plan, err := ft.Plan()
	if err != nil {
		return fail2(err)
	}
	if err := plan.CheckNodes(*procs); err != nil {
		return fail2(err)
	}
	if err := plan.CheckSurvivors(*procs); err != nil {
		return fail2(err)
	}
	opt, err := ft.Options()
	if err != nil {
		return fail2(err)
	}
	if desc := ft.Describe(); desc != "" {
		fmt.Fprintf(stdout, "%s\n\n", desc)
	}

	wl := &micro.ExchangeWorkload{MsgSize: *size, Compute: *compute, StepCount: *steps}
	runs := []struct {
		label string
		plan  *fabric.CrashPlan
	}{{"baseline", nil}}
	if ft.Active() {
		runs = append(runs, struct {
			label string
			plan  *fabric.CrashPlan
		}{"crashed", plan})
	}

	t := report.NewTable(
		fmt.Sprintf("Recovery cost — %d-rank ring exchange, %d B x %d steps, %v compute",
			*procs, *size, *steps, *compute),
		"run", "min%", "max%", "epochs", "ckpts", "replayed",
		"detect", "agree", "rollback", "recompute", "run time")
	var crashed *profile.Profile
	var crashedRes *cluster.FTResult
	for i, r := range runs {
		// The observability flags export the last (most interesting) run:
		// one trace file holds one run.
		var tr *trace.Tracer
		if i == len(runs)-1 {
			tr = obs.Tracer()
		}
		if tr == nil {
			tr = trace.New(trace.Options{Generator: version()})
		}
		res, p, err := runCrashPoint(r.plan, opt, wl, *procs, *retries, bf, tr)
		if err != nil {
			return fail(fmt.Errorf("%s run: %w", r.label, err))
		}
		if i == len(runs)-1 {
			obs.SetRun(res.Calib, res.Reports)
			obs.SetFT(r.plan, opt.Mode, res)
		}
		if r.plan != nil {
			crashed, crashedRes = p, res
		}
		addRow(t, r.label, res, p)
	}
	t.Render(stdout)
	if crashedRes != nil {
		fmt.Fprintf(stdout, "  failed ranks %v, survivors %v, completed %v\n",
			crashedRes.Failed, crashedRes.Survivors, crashedRes.Completed)
	}
	fmt.Fprintln(stdout)
	if crashed != nil && len(crashed.Epochs) > 1 {
		renderEpochs(stdout, crashed)
	}
	if err := obs.Finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}

// runCrashPoint executes one fault-tolerant run and profiles its trace for
// the recovery blame columns. A nil profile (a stream too short to
// analyze) leaves the blame columns empty rather than failing the run.
func runCrashPoint(plan *fabric.CrashPlan, opt cluster.FTOptions, wl cluster.Checkpointable,
	procs, retries int, bf *backendFlag, tr *trace.Tracer) (*cluster.FTResult, *profile.Profile, error) {
	cfg := cluster.Config{
		Procs: procs,
		MPI: mpi.Config{
			Protocol:   mpi.PipelinedRDMA,
			Instrument: &mpi.InstrumentConfig{},
			Reliable:   &fabric.ReliableParams{MaxRetries: retries},
		},
		Crashes:  plan,
		Deadline: 30 * time.Second,
		Trace:    tr,
	}
	cfg.Backend = bf.Backend()
	res, err := cluster.RunFT(cfg, opt, wl)
	if err != nil {
		return nil, nil, err
	}
	p, perr := profile.Analyze(profile.FromTracer(tr, res.Calib, res.Reports))
	if perr != nil {
		p = nil
	}
	return &res, p, nil
}

func addRow(t *report.Table, label string, res *cluster.FTResult, p *profile.Profile) {
	var tot overlap.Measures
	for _, rep := range res.Reports {
		if rep != nil {
			tot.Add(rep.Total())
		}
	}
	var b profile.Blame
	if p != nil {
		b = p.Totals.Blame
	}
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	t.AddRow(label, tot.MinPercent(), tot.MaxPercent(),
		res.Epochs, res.Checkpoints, res.ReplayedSteps,
		us(b.Detect), us(b.Agree), us(b.Rollback), us(b.Recompute),
		res.Duration.Round(time.Microsecond))
}

// renderEpochs prints the crashed run's per-epoch overlap accounting:
// the same totals the whole-run row sums, sliced at the epoch cuts so
// pre-failure overlap is not smeared across the recovery.
func renderEpochs(w io.Writer, p *profile.Profile) {
	t := report.NewTable("  Per-epoch accounting (crashed run)",
		"epoch", "xfers", "data xfer", "min%", "max%", "gap")
	pct := func(part, whole time.Duration) string {
		if whole == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", 100*float64(part)/float64(whole))
	}
	for _, e := range p.Epochs {
		t.AddRow(e.Epoch, e.Transfers,
			e.DataTransferTime.Round(time.Microsecond),
			pct(e.MinOverlapped, e.DataTransferTime),
			pct(e.MaxOverlapped, e.DataTransferTime),
			e.Gap.Round(time.Microsecond))
	}
	t.Render(w)
	fmt.Fprintln(w)
}
