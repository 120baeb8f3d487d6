package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/micro"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/progress"
	"ovlp/internal/report"
	"ovlp/internal/scenario"
)

// collstudyMain characterizes the nonblocking collectives: for each
// schedule algorithm and progress mode it runs a compute-overlapped
// collective and prints process 0's certified min/max overlap bounds,
// the time spent blocked in WaitColl, and the virtual run time — the
// subsystem's analogue of the paper's microbenchmark sweeps, showing
// how much overlap each progress strategy actually recovers.
//
//	ovlp collstudy [-op iallreduce] [-procs 8] [-sizes 4K,64K,1M]
//	               [-algos auto] [-modes manual,piggyback,thread]
//	               [-compute 500us] [-polls 0] [-reps 10] [-coll-chunk 0]
//	               [-progress-quantum 10us] [-fault-seed N -drop P ...]
//	               [-trace out.json] [-metrics] [-profile out.txt] [-diagnose -]
//
// Each rep starts the collective, computes -compute of application
// work (optionally interspersed with -polls TestColl calls — the
// manual-progress poll budget), then waits. With -polls 0 the manual
// row shows what the paper's same-call case certifies (nothing), and
// the thread row what a progress thread recovers from identical code.
//
// Bad flags or invalid sweep/fault configuration exit 2 before any
// simulation starts; a failed observability output exits 1.
func collstudyMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("collstudy", stderr)
	opFlag := fs.String("op", "iallreduce", "collective to study: ibcast, ireduce, iallreduce, ialltoall or ibarrier")
	procs := fs.Int("procs", 8, "number of processes")
	sizesFlag := fs.String("sizes", "4K,64K,1M", "comma-separated payload sizes (K/M suffixes)")
	algosFlag := fs.String("algos", "auto", "comma-separated schedule algorithms (auto, binomial, ring, recdouble)")
	modesFlag := fs.String("modes", "manual,piggyback,thread", "comma-separated progress modes")
	compute := fs.Duration("compute", 500*time.Microsecond, "application computation per rep")
	polls := fs.Int("polls", 0, "TestColl polls interspersed in each rep's computation")
	reps := fs.Int("reps", 10, "repetitions per configuration")
	chunk := fs.Int("coll-chunk", 0, "pipeline collective payloads in chunks of this many bytes (0 = unchunked)")
	quantum := fs.Duration("progress-quantum", progress.DefaultQuantum, "wake quantum of the thread progress engine")
	ff := registerFaults(fs, true)
	obs := registerObs(fs)
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail2 := failWith(stderr, "collstudy", 2)
	fail := failWith(stderr, "collstudy", 1)

	if *procs < 1 {
		return fail2(fmt.Errorf("bad processor count %d", *procs))
	}
	faults, err := ff.Plan()
	if err != nil {
		return fail2(err)
	}
	if err := checkFaultNodes(faults, []int{*procs}); err != nil {
		return fail2(err)
	}
	if desc := describeFaults(faults); desc != "" {
		fmt.Fprintf(stdout, "%s\n\n", desc)
	}
	op := strings.ToLower(strings.TrimSpace(*opFlag))
	startOp, ok := mpi.CollStart(op)
	if !ok {
		return fail2(fmt.Errorf("unknown collective %q", op))
	}
	algos, err := parseList(*algosFlag, false, coll.ParseAlgo)
	if err != nil {
		return fail2(err)
	}
	modes, err := parseList(*modesFlag, false, progress.ParseMode)
	if err != nil {
		return fail2(err)
	}
	sizes, err := parseList(*sizesFlag, false, scenario.ParseSize)
	if err != nil {
		return fail2(err)
	}
	if obs.Enabled() && (len(algos) != 1 || len(modes) != 1 || len(sizes) != 1) {
		return fail2(fmt.Errorf("-trace/-metrics/-profile need a single run: pass one -algos, one -modes and one -sizes value"))
	}

	title := fmt.Sprintf("Nonblocking %s on %d procs — %v compute, %d polls, %d reps",
		op, *procs, *compute, *polls, *reps)
	t := report.NewTable(title,
		"algo", "mode", "size", "min%", "max%", "wait", "MPI time", "run time")
	start := time.Now()
	for _, algo := range algos {
		for _, mode := range modes {
			for _, size := range sizes {
				var wait time.Duration
				res := cluster.Run(cluster.Config{
					Procs:   *procs,
					Backend: bf.Backend(),
					MPI: mpi.Config{
						CollAlgo:   algo,
						CollChunk:  *chunk,
						Progress:   progress.Config{Mode: mode, Quantum: *quantum},
						Instrument: &mpi.InstrumentConfig{},
					},
					Faults: faults,
					Trace:  obs.Tracer(),
				}, func(r *mpi.Rank) {
					micro.PolledColl(r, startOp, size.N(), *reps, *polls, *compute)
					if r.ID() == 0 {
						wait = r.CallTimes()["WaitColl"]
					}
				})
				obs.SetRun(res.Calib, res.Reports)
				tot := res.Reports[0].Total()
				t.AddRow(algo, mode, overlap.SizeLabel(size.N()),
					tot.MinPercent(), tot.MaxPercent(),
					wait.Round(time.Microsecond),
					res.MPITimes[0].Round(time.Microsecond),
					res.Duration.Round(time.Microsecond))
			}
		}
	}
	t.Render(stdout)
	fmt.Fprintf(stdout, "  (%v)\n\n", time.Since(start).Round(time.Millisecond))
	if err := obs.Finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}
