package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/report"
	"ovlp/internal/trace"
)

const (
	dropMsgSize = 64 << 10 // rendezvous-range messages: retransmits hurt
	dropProcs   = 2
	dropCompute = 200 * time.Microsecond
)

// faultstudyMain sweeps a fault-injection parameter over a fixed
// two-process exchange workload and prints how the overlap bounds,
// wait time and repair traffic respond — the experiment no real
// instrumentation deployment could run, because it needs a network
// whose loss is exactly reproducible.
//
// Each drop rate reruns the same seeded workload: non-blocking
// exchanges with computation sized to hide one clean transfer. As loss
// grows, retransmissions stretch the library's detection window; the
// wait time and the min/max gap widen while the instrumentation's
// bounds stay valid against the simulator's ground truth (the property
// internal/cluster's fault-oracle tests assert).
//
//	ovlp faultstudy [-rates 0,0.01,0.05,0.1,0.2] [-fault-seed 1] [-reps 200]
//	                [-scenario file.yaml] [-stall "1@2ms+500us"]
//	                [-csv] [-trace out.json] [-metrics] [-profile out.txt]
//
// -scenario layers a declarative chaos schedule (the scenario file's
// chaos, stalls and seed; its workload section is ignored here) under
// the swept drop rate. All fault configuration is validated before any
// rank is spawned: a plan naming nodes this two-process machine does
// not have exits with status 2 and the validation message, instead of
// panicking mid-sweep.
//
// -csv replaces the table with machine-readable CSV on stdout (times
// in nanoseconds), for plotting the sweep. -trace exports the final
// rate point as Chrome trace-event JSON; -metrics prints its counters,
// and -profile runs the critical-path/blame profiler over it — on a
// faulted sweep the fault-retransmit blame column shows what the
// repair traffic cost. -diagnose runs the diagnosis engine over the
// same traced point and emits its ranked findings (a lossy sweep's
// dominant finding is the retransmit storm).
func faultstudyMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("faultstudy", stderr)
	ratesFlag := fs.String("rates", "0,0.01,0.05,0.1,0.2", "comma-separated drop rates to sweep")
	reps := fs.Int("reps", 200, "exchanges per drop rate")
	csvOut := fs.Bool("csv", false, "emit machine-readable CSV instead of the table (times in ns)")
	ff := registerFaults(fs)
	obs := registerObs(fs)
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	fail2 := failWith(stderr, "faultstudy", 2)
	fail := failWith(stderr, "faultstudy", 1)
	rates, err := parseRates(*ratesFlag)
	if err != nil {
		return fail2(err)
	}
	// Validate the full fault configuration up front — scenario compile
	// errors and node-range mistakes must surface as a clean exit, not
	// as a panic from inside the simulation.
	base, err := ff.Plan()
	if err != nil {
		return fail2(err)
	}
	if err := checkFaultNodes(base, []int{dropProcs}); err != nil {
		return fail2(err)
	}

	var rows []dropPoint
	for i, rate := range rates {
		// Only the final rate point is traced: one trace file holds one
		// run, and the last point is the sweep's most faulted.
		var tr *trace.Tracer
		if i == len(rates)-1 {
			tr = obs.Tracer()
		}
		row, err := runDropPoint(rate, base, ff.Seed(), *reps, bf, tr, obs)
		if err != nil {
			return fail(fmt.Errorf("drop rate %g: %w", rate, err))
		}
		rows = append(rows, row)
	}

	if *csvOut {
		writeCSV(stdout, rates, rows)
	} else {
		writeTable(stdout, rates, rows, ff.Seed(), *reps)
	}
	if err := obs.Finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}

func writeTable(w io.Writer, rates []float64, rows []dropPoint, seed int64, reps int) {
	t := report.NewTable(
		fmt.Sprintf("Overlap bounds vs drop rate — 2 procs, Isend/Irecv %d KiB x %d, %v compute (seed %d)",
			dropMsgSize>>10, reps, dropCompute, seed),
		"drop", "min%", "max%", "avg wait", "dropped", "retransmits", "run time")
	for i, row := range rows {
		t.AddRow(fmt.Sprintf("%.2f", rates[i]), row.minPct, row.maxPct,
			row.wait.Round(time.Microsecond), row.dropped, row.retransmits,
			row.duration.Round(time.Microsecond))
	}
	t.Render(w)
	fmt.Fprintln(w, "\n  retransmitted attempts count as library time, never as extra transfers,")
	fmt.Fprintln(w, "  so rising loss squeezes the achievable overlap instead of inflating it.")
}

// writeCSV emits one row per rate point with durations as integer
// nanoseconds, the plotting-friendly twin of the table.
func writeCSV(w io.Writer, rates []float64, rows []dropPoint) {
	cw := csv.NewWriter(w)
	cw.Write([]string{"drop_rate", "min_pct", "max_pct", "avg_wait_ns", "dropped", "retransmits", "run_ns"})
	for i, row := range rows {
		cw.Write([]string{
			strconv.FormatFloat(rates[i], 'g', -1, 64),
			strconv.FormatFloat(row.minPct, 'f', 2, 64),
			strconv.FormatFloat(row.maxPct, 'f', 2, 64),
			strconv.FormatInt(int64(row.wait), 10),
			strconv.Itoa(row.dropped),
			strconv.Itoa(row.retransmits),
			strconv.FormatInt(int64(row.duration), 10),
		})
	}
	cw.Flush()
}

type dropPoint struct {
	minPct, maxPct float64
	wait           time.Duration
	dropped        int
	retransmits    int
	duration       time.Duration
}

// pointPlan layers the swept drop rate over the base plan (nil base,
// zero rate → no faults, preserving the sweep's fault-free row).
func pointPlan(rate float64, base *fabric.FaultPlan, seed int64) *fabric.FaultPlan {
	if base == nil {
		if rate == 0 {
			return nil
		}
		return &fabric.FaultPlan{Seed: seed, Default: fabric.LinkFaults{DropRate: rate}}
	}
	p := *base // shallow copy: only Default is adjusted
	p.Default.DropRate = rate
	return &p
}

func runDropPoint(rate float64, base *fabric.FaultPlan, seed int64, reps int, bf *backendFlag, tr *trace.Tracer, obs *obsFlags) (dropPoint, error) {
	cfg := cluster.Config{
		Procs: dropProcs,
		MPI: mpi.Config{
			Protocol:   mpi.DirectRDMARead,
			Instrument: &mpi.InstrumentConfig{},
		},
		Faults: pointPlan(rate, base, seed),
		Trace:  tr,
	}
	bf.Apply(&cfg)
	var waits [2]time.Duration
	res, err := cluster.RunE(cfg, func(r *mpi.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < reps; i++ {
			sq := r.Isend(peer, 0, dropMsgSize)
			rq := r.Irecv(peer, 0)
			r.Compute(dropCompute)
			start := r.Now()
			r.Waitall(sq, rq)
			waits[r.ID()] += r.Now() - start
		}
	})
	if err != nil {
		return dropPoint{}, err
	}
	if tr != nil {
		obs.SetRun(res.Calib, res.Reports)
	}
	tot := res.Reports[0].Total()
	out := dropPoint{
		minPct:   tot.MinPercent(),
		maxPct:   tot.MaxPercent(),
		wait:     (waits[0] + waits[1]) / time.Duration(2*reps),
		dropped:  res.FaultStats.Dropped,
		duration: res.Duration,
	}
	for _, rs := range res.RelStats {
		out.retransmits += rs.Retransmits + rs.Reposts
	}
	return out, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("bad drop rate %q (want a number in [0,1])", part)
		}
		out = append(out, r)
	}
	return out, nil
}
