package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/report"
)

// overheadMain regenerates the paper's instrumentation-overhead
// experiment (Sec. 4.5, Fig. 20): each NAS benchmark runs once
// uninstrumented and once with the instrumentation's modelled CPU
// costs charged to the ranks, and the run-time difference is reported.
// The paper measures under 0.9% for all test cases.
//
//	ovlp overhead [-benches BT,CG,LU,FT,SP,MG] [-class A] [-procs 4] [-iters 10]
func overheadMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("overhead", stderr)
	benchFlag := fs.String("benches", "BT,CG,LU,FT,SP,MG", "comma-separated benchmarks")
	classFlag := fs.String("class", "A", "problem class")
	procs := fs.Int("procs", 4, "processor count")
	iters := fs.Int("iters", 10, "iteration cap (0 = full)")
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail2 := failWith(stderr, "overhead", 2)
	classes, err := parseClasses(*classFlag)
	if err != nil || len(classes) != 1 {
		return fail2(fmt.Errorf("-class must name one problem class, not %q", *classFlag))
	}
	class := classes[0]
	var benches []string
	for _, b := range strings.Split(*benchFlag, ",") {
		b = strings.ToUpper(strings.TrimSpace(b))
		if err := nas.Check(b, class, *procs); err != nil {
			return fail2(err)
		}
		benches = append(benches, b)
	}
	t := report.NewTable(
		fmt.Sprintf("Instrumentation overhead — class %s, %d procs (paper Fig. 20: <0.9%%)", class, *procs),
		"benchmark", "plain", "instrumented", "overhead%")
	for _, b := range benches {
		proto := mpi.DirectRDMARead
		if b == nas.BT || b == nas.CG {
			proto = mpi.PipelinedRDMA
		}
		r := nas.MeasureOverhead(b, class, *procs, nas.Options{Protocol: proto, MaxIters: *iters, Backend: bf.Backend()})
		t.AddRow(b, r.Plain.Round(time.Microsecond),
			r.Instrumented.Round(time.Microsecond),
			fmt.Sprintf("%.3f", r.OverheadPct))
	}
	t.Render(stdout)
	return 0
}
