package main

import (
	"fmt"
	"io"
	"time"

	"ovlp/internal/nas"
	"ovlp/internal/report"
)

// spstudyMain regenerates the paper's NAS SP case study (Sec. 4.3,
// Figs. 14-18): overlap bounds over the explicit overlapping section
// and over the complete code, original versus Iprobe-modified, plus
// the total MPI times — all under the direct-RDMA-read library
// (MVAPICH2), as in the paper.
//
//	ovlp spstudy [-classes A,B] [-procs 4,9,16] [-iters 10]
//	             [-trace out.json] [-metrics] [-profile out.txt]
//
// -trace/-metrics/-profile (which need a single class and processor
// count) export the modified run — the one whose Iprobe calls create
// the overlap the case study is about — as Chrome trace-event JSON,
// print its counters, and run the critical-path/blame profiler over
// it.
func spstudyMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("spstudy", stderr)
	classFlag := fs.String("classes", "A,B", "comma-separated problem classes")
	procsFlag := fs.String("procs", "4,9,16", "comma-separated processor counts (squares)")
	iters := fs.Int("iters", 10, "iteration cap (0 = full NPB count)")
	obs := registerObs(fs)
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail, fail2 := failWith(stderr, "spstudy", 1), failWith(stderr, "spstudy", 2)

	classes, err := parseClasses(*classFlag)
	if err != nil {
		return fail2(err)
	}
	procs, err := parseProcs(*procsFlag, []int{4, 9, 16})
	if err != nil {
		return fail2(err)
	}
	if obs.Enabled() && (len(classes) != 1 || len(procs) != 1) {
		return fail2(fmt.Errorf("-trace/-metrics need a single run: pass one -classes and one -procs value"))
	}

	for _, class := range classes {
		section := report.NewTable(
			fmt.Sprintf("SP class %s — overlapping section, original vs modified (paper Figs. 14/15)", class),
			"procs", "orig min%", "orig max%", "mod min%", "mod max%")
		whole := report.NewTable(
			fmt.Sprintf("SP class %s — complete code (paper Figs. 16/17)", class),
			"procs", "orig min%", "orig max%", "mod min%", "mod max%")
		mpiT := report.NewTable(
			fmt.Sprintf("SP class %s — total MPI time (paper Fig. 18)", class),
			"procs", "orig", "modified", "change%")
		for _, p := range procs {
			orig := nas.CharacterizeSP(class, p, false, nas.Options{
				MaxIters: *iters,
				Backend:  bf.Backend(),
			})
			mod := nas.CharacterizeSP(class, p, true, nas.Options{
				MaxIters: *iters,
				Trace:    obs.Tracer(),
				Backend:  bf.Backend(),
			})
			obs.SetRun(nil, mod.Reports)
			section.AddRow(p, orig.SectionMinPct, orig.SectionMaxPct,
				mod.SectionMinPct, mod.SectionMaxPct)
			whole.AddRow(p, orig.TotalMinPct, orig.TotalMaxPct,
				mod.TotalMinPct, mod.TotalMaxPct)
			change := 100 * (float64(mod.MPITime) - float64(orig.MPITime)) / float64(orig.MPITime)
			mpiT.AddRow(p, orig.MPITime.Round(time.Microsecond),
				mod.MPITime.Round(time.Microsecond), change)
		}
		section.Render(stdout)
		fmt.Fprintln(stdout)
		whole.Render(stdout)
		fmt.Fprintln(stdout)
		mpiT.Render(stdout)
		fmt.Fprintln(stdout)
	}
	if err := obs.Finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}
