package main

import (
	"fmt"
	"io"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/micro"
	"ovlp/internal/report"
)

var figureNotes = map[int]string{
	3: "eager protocol, 10 KiB: short messages exhibit full overlap ability",
	4: "pipelined RDMA overlaps only the first fragment: flat sender curves",
	5: "direct RDMA read: sender overlap grows with computation, wait time drops",
	6: "pipelined, Send-Irecv: receiver overlaps only the first fragment",
	7: "direct, Send-Irecv: polling misses the request - zero receiver overlap",
	8: "pipelined, Isend-Irecv: first fragment only on both sides",
	9: "direct, Isend-Irecv: complete overlap possible for the sender",
}

// overlapbenchMain regenerates the paper's microbenchmark figures
// (Figs. 3-9): two processes exchanging messages under each
// point-to-point call combination and long-message protocol, with
// increasing computation inserted on the non-blocking side(s). For
// each computation length it prints the average MPI_Wait time and the
// min/max overlap percentages from the instrumentation.
//
//	ovlp overlapbench [-fig 0] [-reps 1000] [-backend virtual|real]
//	                 [-fault-seed N -drop P -stall ...]
//	                 [-coll-algo auto] [-progress manual]
//	                 [-trace out.json] [-metrics] [-profile out.txt] [-diagnose -]
//
// -fig 0 (the default) runs every figure. -backend real runs the same
// kernel waiting out every modelled cost on the wall clock, so the
// printed bounds are wall-clock measurements (use small -reps). The
// fault flags (see registerFaults), on either backend, rerun
// the figures on a deterministically lossy network: the library
// retransmits behind the instrumentation's back,
// and the printed wait times and bounds show what the repair traffic
// costs. With -trace (which needs a single -fig), the figure's final
// computation point is rerun once more under the tracer and exported
// as Chrome trace-event JSON; -metrics prints the run's counters,
// -profile runs the critical-path/blame profiler over it (see
// internal/profile; "-profile -" prints the text report), and
// -diagnose runs the diagnosis engine and prints its ranked findings.
//
// Bad flags or invalid fault configuration exit 2 before any
// simulation starts; a failed traced run exits 1.
func overlapbenchMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("overlapbench", stderr)
	fig := fs.Int("fig", 0, "paper figure to regenerate (3-9; 0 = all)")
	reps := fs.Int("reps", 1000, "transfers per computation point (paper uses 1000)")
	cf := registerColl(fs)
	ff := registerFaults(fs)
	obs := registerObs(fs)
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail2 := failWith(stderr, "overlapbench", 2)
	fail := failWith(stderr, "overlapbench", 1)
	faults, err := ff.Plan()
	if err != nil {
		return fail2(err)
	}
	if err := checkFaultNodes(faults, []int{2}); err != nil {
		return fail2(err) // microbenchmarks always run 2 processes
	}
	if desc := describeFaults(faults); desc != "" {
		fmt.Fprintf(stdout, "%s\n\n", desc)
	}

	figs := []int{3, 4, 5, 6, 7, 8, 9}
	if *fig != 0 {
		if *fig < 3 || *fig > 9 {
			return fail2(fmt.Errorf("no paper figure %d (want 3-9)", *fig))
		}
		figs = []int{*fig}
	}
	if obs.Enabled() && *fig == 0 {
		return fail2(fmt.Errorf("-trace/-metrics need a single figure: pass -fig 3..9"))
	}
	for _, f := range figs {
		runFigure(stdout, f, *reps, faults, cf, bf)
	}
	if obs.Enabled() {
		if err := runTraced(stdout, *fig, *reps, faults, cf, bf, obs); err != nil {
			return fail(err)
		}
	}
	return 0
}

// runTraced reruns the selected figure's final computation point once
// more with the tracer attached, so the exported timeline shows one
// fully-overlapping exchange pattern rather than the whole sweep.
func runTraced(w io.Writer, fig, reps int, faults *fabric.FaultPlan, cf *collFlags, bf *backendFlag, obs *obsFlags) error {
	e := micro.PaperFigure(fig, reps)
	e.Config.Faults = faults
	e.Config.Trace = obs.Tracer()
	bf.Apply(&e.Config)
	cf.Apply(&e.Config.MPI)
	e.Observe = func(res cluster.Result) { obs.SetRun(res.Calib, res.Reports) }
	e.ComputePoints = e.ComputePoints[len(e.ComputePoints)-1:]
	e.Run()
	fmt.Fprintf(w, "traced figure %d at compute %v, %d reps\n", fig, e.ComputePoints[0], e.Reps)
	return obs.Finish(w)
}

func runFigure(w io.Writer, fig, reps int, faults *fabric.FaultPlan, cf *collFlags, bf *backendFlag) {
	e := micro.PaperFigure(fig, reps)
	e.Config.Faults = faults
	bf.Apply(&e.Config)
	cf.Apply(&e.Config.MPI)
	start := time.Now()
	points := e.Run()

	title := fmt.Sprintf("Figure %d: %v, %v, %s x %d reps — %s",
		fig, e.Pair, e.Protocol, sizeLabel(e.MsgSize), e.Reps, figureNotes[fig])
	t := report.NewTable(title,
		"compute", "sender wait", "recv wait",
		"s.min%", "s.max%", "r.min%", "r.max%")
	for _, p := range points {
		t.AddRow(p.Compute, p.SenderWait, p.ReceiverWait,
			p.SenderMin, p.SenderMax, p.ReceiverMin, p.ReceiverMax)
	}
	t.Render(w)
	fmt.Fprintf(w, "  (%d points, %v)\n\n", len(points), time.Since(start).Round(time.Millisecond))
}

func sizeLabel(n int) string {
	if n >= 1<<20 && n%(1<<20) == 0 {
		return fmt.Sprintf("%d MiB", n>>20)
	}
	if n >= 1<<10 {
		return fmt.Sprintf("%d KiB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}
