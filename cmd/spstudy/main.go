// Spstudy regenerates the paper's NAS SP case study (Sec. 4.3,
// Figs. 14-18): overlap bounds over the explicit overlapping section
// and over the complete code, original versus Iprobe-modified, plus
// the total MPI times — all under the direct-RDMA-read library
// (MVAPICH2), as in the paper.
//
// Usage:
//
//	spstudy [-classes A,B] [-procs 4,9,16] [-iters 10]
//	        [-trace out.json] [-metrics] [-profile out.txt]
//
// -trace/-metrics/-profile (which need a single class and processor
// count) export the modified run — the one whose Iprobe calls create
// the overlap the case study is about — as Chrome trace-event JSON,
// print its counters, and run the critical-path/blame profiler over
// it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"ovlp/internal/cmdutil"
	"ovlp/internal/nas"
	"ovlp/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spstudy: ")
	classFlag := flag.String("classes", "A,B", "comma-separated problem classes")
	procsFlag := flag.String("procs", "4,9,16", "comma-separated processor counts (squares)")
	iters := flag.Int("iters", 10, "iteration cap (0 = full NPB count)")
	obs := cmdutil.RegisterObs(nil)
	bf := cmdutil.RegisterBackend(nil)
	ver := cmdutil.RegisterVersion(nil)
	flag.Parse()
	if *ver {
		fmt.Println(cmdutil.Version())
		return
	}

	var classes []nas.Class
	for _, part := range strings.Split(*classFlag, ",") {
		part = strings.ToUpper(strings.TrimSpace(part))
		classes = append(classes, nas.Class(part[0]))
	}
	procs, err := cmdutil.ParseProcs(*procsFlag, []int{4, 9, 16})
	if err != nil {
		log.Fatal(err)
	}
	if obs.Enabled() && (len(classes) != 1 || len(procs) != 1) {
		log.Fatal("-trace/-metrics need a single run: pass one -classes and one -procs value")
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
		section.Render(os.Stdout)
		fmt.Println()
		whole.Render(os.Stdout)
		fmt.Println()
		mpiT.Render(os.Stdout)
		fmt.Println()
	}
	if obs.Enabled() {
		if err := obs.Finish(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
