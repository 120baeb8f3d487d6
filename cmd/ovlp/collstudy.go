package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/mpi"
	"ovlp/internal/progress"
	"ovlp/internal/report"
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
	ff := registerFaults(fs)
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
	if !knownOp(op) {
		return fail2(fmt.Errorf("unknown collective %q", op))
	}
	algos, err := parseAlgos(*algosFlag)
	if err != nil {
		return fail2(err)
	}
	modes, err := parseModes(*modesFlag)
	if err != nil {
		return fail2(err)
	}
	sizes, err := parseSizes(*sizesFlag)
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
					for i := 0; i < *reps; i++ {
						cr := startOp(r, op, size)
						slice := *compute / time.Duration(*polls+1)
						for k := 0; k <= *polls; k++ {
							r.Compute(slice)
							if k < *polls {
								r.TestColl(cr)
							}
						}
						r.WaitColl(cr)
					}
					if r.ID() == 0 {
						wait = r.CallTimes()["WaitColl"]
					}
				})
				obs.SetRun(res.Calib, res.Reports)
				tot := res.Reports[0].Total()
				t.AddRow(algo, mode, collSizeLabel(size),
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

func knownOp(op string) bool {
	switch op {
	case "ibcast", "ireduce", "iallreduce", "ialltoall", "ibarrier":
		return true
	}
	return false
}

// startOp launches the studied collective; op was validated up front.
func startOp(r *mpi.Rank, op string, size int) *mpi.CollRequest {
	switch op {
	case "ibcast":
		return r.Ibcast(0, size)
	case "ireduce":
		return r.Ireduce(0, size)
	case "iallreduce":
		return r.Iallreduce(size)
	case "ialltoall":
		return r.Ialltoall(size)
	default:
		return r.Ibarrier()
	}
}

func parseAlgos(s string) ([]coll.Algo, error) {
	var out []coll.Algo
	for _, part := range strings.Split(s, ",") {
		a, err := coll.ParseAlgo(part)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func parseModes(s string) ([]progress.Mode, error) {
	var out []progress.Mode
	for _, part := range strings.Split(s, ",") {
		m, err := progress.ParseMode(part)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.ToUpper(strings.TrimSpace(part))
		mult := 1
		switch {
		case strings.HasSuffix(part, "M"):
			mult, part = 1<<20, strings.TrimSuffix(part, "M")
		case strings.HasSuffix(part, "K"):
			mult, part = 1<<10, strings.TrimSuffix(part, "K")
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n*mult)
	}
	return out, nil
}

func collSizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
