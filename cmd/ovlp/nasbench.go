package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/overlap"
	"ovlp/internal/report"
)

// paperProtocol maps each benchmark to the library the paper pairs it
// with (Sec. 4: BT, CG with Open MPI; LU, FT, SP with MVAPICH2).
var paperProtocol = map[string]mpi.LongProtocol{
	nas.BT: mpi.PipelinedRDMA,
	nas.CG: mpi.PipelinedRDMA,
	nas.LU: mpi.DirectRDMARead,
	nas.FT: mpi.DirectRDMARead,
	nas.SP: mpi.DirectRDMARead,
	nas.MG: mpi.DirectRDMARead,
	nas.IS: mpi.DirectRDMARead,
	nas.EP: mpi.DirectRDMARead,
}

// figure numbers for the table titles.
var paperFigure = map[string]string{
	nas.BT: "Fig. 10",
	nas.CG: "Fig. 11",
	nas.LU: "Fig. 12",
	nas.FT: "Fig. 13",
}

// nasbenchMain regenerates the paper's NAS benchmark characterizations:
// Figs. 10-13 (BT and CG under the pipelined-RDMA library as with Open
// MPI; LU and FT under direct RDMA read as with MVAPICH2) and Fig. 19
// (the ARMCI MG variants). For each benchmark it sweeps problem
// classes and processor counts and prints process 0's min/max overlap
// percentages, as the paper reports.
//
//	ovlp nasbench [-bench all] [-classes S,W,A,B] [-procs ...] [-iters 10]
//	              [-overlap] [-coll-algo auto] [-coll-chunk 0]
//	              [-progress manual] [-progress-quantum 10us]
//	              [-trace out.json] [-metrics] [-profile out.txt] [-diagnose -]
//
// -overlap runs the overlapped-collective variants of CG, FT and MG
// (nonblocking schedules advanced by the -progress engine); the
// -coll-* flags pick the schedule algorithm and pipelining chunk.
//
// -iters truncates each benchmark's time-stepping loop; overlap
// percentages converge within a few iterations, so the default keeps
// runs quick. Pass -iters 0 for the full NPB iteration counts.
// -trace/-metrics/-profile/-diagnose (which need a single
// bench/class/procs selection) export the run as Chrome trace-event
// JSON, print its counters, run the critical-path/blame profiler over
// it, and emit the diagnosis engine's ranked findings.
//
// Bad flags or invalid sweep/fault configuration exit 2 before any
// simulation starts; a failed run or output exits 1.
func nasbenchMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("nasbench", stderr)
	benchFlag := fs.String("bench", "all", "comma-separated benchmarks (BT,CG,LU,FT,SP,MG,IS,EP,MG-ARMCI) or 'all'/'paper'")
	classFlag := fs.String("classes", "S,W,A,B", "comma-separated problem classes")
	procsFlag := fs.String("procs", "", "comma-separated processor counts (default per benchmark)")
	iters := fs.Int("iters", 10, "iteration cap (0 = full NPB iteration counts)")
	bins := fs.Bool("bins", false, "also print process 0's per-message-size-bin breakdown")
	hw := fs.Bool("hw", false, "use NIC hardware time-stamps (precise mode: min == max)")
	jsonDir := fs.String("json", "", "directory to write per-rank JSON reports into (inspect with ovlpreport)")
	overlapped := fs.Bool("overlap", false, "run the overlapped-collective variants of CG, FT and MG")
	cf := registerColl(fs)
	ff := registerFaults(fs, true)
	obs := registerObs(fs)
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail2 := failWith(stderr, "nasbench", 2)
	fail := failWith(stderr, "nasbench", 1)
	faults, err := ff.Plan()
	if err != nil {
		return fail2(err)
	}
	// Validate the whole sweep configuration before any simulation: a
	// malformed -procs or -classes exits 2 up front, not mid-sweep.
	if _, err := parseProcs(*procsFlag, nil); err != nil {
		return fail2(err)
	}
	classes, err := parseClasses(*classFlag)
	if err != nil {
		return fail2(err)
	}
	if desc := describeFaults(faults); desc != "" {
		fmt.Fprintf(stdout, "%s\n\n", desc)
	}

	var benches []string
	switch *benchFlag {
	case "all":
		benches = append(nas.Names(), "MG-ARMCI")
	case "paper":
		benches = []string{nas.BT, nas.CG, nas.LU, nas.FT, "MG-ARMCI"}
	default:
		benches = strings.Split(*benchFlag, ",")
	}
	// One trace file holds one run.
	single := fmt.Errorf("-trace/-metrics need a single run: pass one -bench, one -classes and one -procs value")
	if obs.Enabled() && (len(benches) != 1 || len(classes) != 1) {
		return fail2(single)
	}

	type sweep struct {
		bench string
		procs []int
	}
	var sweeps []sweep
	for _, b := range benches {
		b = strings.ToUpper(strings.TrimSpace(b))
		dp, kernel := []int{4, 8, 16}, b
		switch b {
		case "MG-ARMCI":
			dp, kernel = []int{2, 4, 8}, nas.MG
		case nas.BT, nas.SP:
			dp = []int{4, 9, 16}
		}
		procs, _ := parseProcs(*procsFlag, dp) // the syntax was validated up front
		for _, class := range classes {
			for _, p := range procs {
				if err := nas.Check(kernel, class, p); err != nil {
					return fail2(err)
				}
			}
		}
		sweeps = append(sweeps, sweep{b, procs})
	}
	for _, sw := range sweeps {
		b, procs := sw.bench, sw.procs
		if err := checkFaultNodes(faults, procs); err != nil {
			return fail2(err)
		}
		if obs.Enabled() && len(procs) != 1 {
			return fail2(single)
		}
		var err error
		if b == "MG-ARMCI" {
			err = runMGARMCI(stdout, classes, procs, *iters, faults, bf, obs)
		} else {
			err = runBench(stdout, b, classes, procs, *iters, *bins, *hw, *overlapped, cf, *jsonDir, faults, bf, obs)
		}
		if err != nil {
			return fail2(err)
		}
	}
	if err := obs.Finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}

func runBench(w io.Writer, name string, classes []nas.Class, procs []int, iters int, bins, hw, overlapped bool, cf *collFlags, jsonDir string, faults *fabric.FaultPlan, bf *backendFlag, obs *obsFlags) error {
	title := fmt.Sprintf("Overlap characterization — NAS %s (%s protocol)", name, paperProtocol[name])
	if f, ok := paperFigure[name]; ok {
		title = fmt.Sprintf("%s — paper %s", title, f)
	}
	if hw {
		title += " [NIC hardware time-stamps]"
	}
	if overlapped {
		title += fmt.Sprintf(" [overlapped collectives: %s algo, %s progress]", cf.Algo, cf.Mode)
	}
	t := report.NewTable(title,
		"class", "procs", "min%", "max%", "xfers", "data xfer", "MPI time", "run time")
	var binTables []*report.Table
	start := time.Now()
	for _, class := range classes {
		for _, p := range procs {
			reports, r := nas.CharacterizeAllReports(name, class, p, nas.Options{
				Protocol:     paperProtocol[name],
				MaxIters:     iters,
				HWTimestamps: hw,
				Faults:       faults,
				Backend:      bf.Backend(),
				Trace:        obs.Tracer(),
				Overlap:      overlapped,
				CollAlgo:     cf.Algo,
				CollChunk:    cf.Chunk,
				Progress:     cf.Progress(),
			})
			obs.SetRun(nil, reports)
			rep := reports[0]
			if jsonDir != "" {
				if err := saveReports(jsonDir, name, class, reports); err != nil {
					return err
				}
			}
			t.AddRow(class, p, r.MinPct, r.MaxPct, r.Transfers,
				r.DataTransferTime.Round(time.Microsecond),
				r.MPITime.Round(time.Microsecond),
				r.Duration.Round(time.Microsecond))
			if bins {
				binTables = append(binTables, binTable(name, class, p, rep))
			}
		}
	}
	t.Render(w)
	fmt.Fprintf(w, "  (%v)\n\n", time.Since(start).Round(time.Millisecond))
	for _, bt := range binTables {
		bt.Render(w)
		fmt.Fprintln(w)
	}
	return nil
}

// saveReports writes one JSON report file per rank.
func saveReports(dir, name string, class nas.Class, reports []*overlap.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rep := range reports {
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-p%d-rank%d.json",
			strings.ToLower(name), class, len(reports), rep.Rank))
		if err := rep.SaveJSON(path); err != nil {
			return err
		}
	}
	return nil
}

// binTable renders process 0's per-message-size breakdown — the
// "short versus long" detail the paper uses to attribute
// non-overlapped time to particular transfers.
func binTable(name string, class nas.Class, procs int, rep *overlap.Report) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("  %s class %s, %d procs — message-size breakdown (process 0)", name, class, procs),
		"size bin", "xfers", "data xfer", "min%", "max%", "non-overlapped")
	agg := make([]overlap.Measures, len(rep.BinBounds)+1)
	for _, reg := range rep.Regions {
		for i, b := range reg.Bins {
			agg[i].Add(b)
		}
	}
	for i, b := range agg {
		if b.Count == 0 {
			continue
		}
		t.AddRow(overlap.BinLabel(rep.BinBounds, i), b.Count,
			b.DataTransferTime.Round(time.Microsecond),
			b.MinPercent(), b.MaxPercent(),
			b.NonOverlapped().Round(time.Microsecond))
	}
	return t
}

func runMGARMCI(w io.Writer, classes []nas.Class, procs []int, iters int, faults *fabric.FaultPlan, bf *backendFlag, obs *obsFlags) error {
	t := report.NewTable("Overlap characterization — ARMCI MG, blocking vs non-blocking — paper Fig. 19",
		"class", "procs", "blk min%", "blk max%", "nb min%", "nb max%")
	start := time.Now()
	for _, class := range classes {
		for _, p := range procs {
			opt := nas.Options{MaxIters: iters, Faults: faults, Backend: bf.Backend()}
			b := nas.CharacterizeMGARMCI(class, p, nas.MGBlocking, opt)
			// Only the non-blocking variant is traced: one trace file
			// holds one run, and that variant is the one whose overlap
			// the figure is about.
			opt.Trace = obs.Tracer()
			n := nas.CharacterizeMGARMCI(class, p, nas.MGNonblocking, opt)
			t.AddRow(class, p, b.MinPct, b.MaxPct, n.MinPct, n.MaxPct)
		}
	}
	t.Render(w)
	fmt.Fprintf(w, "  (%v)\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func parseClasses(s string) ([]nas.Class, error) {
	return parseList(s, false, func(part string) (nas.Class, error) {
		part = strings.ToUpper(strings.TrimSpace(part))
		if len(part) != 1 {
			return 0, fmt.Errorf("bad class %q", part)
		}
		return nas.Class(part[0]), nil
	})
}
