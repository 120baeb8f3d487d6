package main

import (
	"fmt"
	"io"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/overlap"
	"ovlp/internal/report"
)

// timelineMain renders an ASCII activity chart of a small instrumented
// run: per rank, one lane showing library-versus-compute occupancy and
// one showing when that rank's NIC had data on the wire (ground
// truth). Wire activity above compute is hidden communication; above
// library time it is exposed — achieved overlap, visible directly.
//
//	ovlp timeline [-scenario ring|ring-probe|sp] [-procs 4] [-width 100]
//	              [-trace out.json] [-metrics]
//
// -trace exports the same run as Chrome trace-event JSON — the
// zoomable twin of the ASCII chart — and -metrics prints its counters.
func timelineMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("timeline", stderr)
	scenario := fs.String("scenario", "ring", "ring, ring-probe, or sp")
	procs := fs.Int("procs", 4, "number of ranks")
	width := fs.Int("width", 100, "chart width in columns")
	obs := registerObs(fs)
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail := failWith(stderr, "timeline", 1)
	if *procs < 1 {
		return failWith(stderr, "timeline", 2)(fmt.Errorf("-procs %d: need at least one rank", *procs))
	}

	traces := make([]overlap.EventLog, *procs)
	cfg := cluster.Config{
		Procs:   *procs,
		Backend: bf.Backend(),
		MPI: mpi.Config{
			Protocol: mpi.DirectRDMARead,
			Instrument: &mpi.InstrumentConfig{
				SinkFor: func(rank int) overlap.Sink { return &traces[rank] },
			},
		},
		RecordTruth: true,
		Trace:       obs.Tracer(),
	}

	var main func(r *mpi.Rank)
	switch *scenario {
	case "ring", "ring-probe":
		probe := *scenario == "ring-probe"
		main = func(r *mpi.Rank) {
			right := (r.ID() + 1) % r.Size()
			left := (r.ID() - 1 + r.Size()) % r.Size()
			for step := 0; step < 4; step++ {
				s := r.Isend(right, step, 512<<10)
				q := r.Irecv(left, step)
				r.Compute(400 * time.Microsecond)
				if probe {
					r.Iprobe(mpi.AnySource, mpi.AnyTag)
				}
				r.Compute(400 * time.Microsecond)
				r.Waitall(s, q)
			}
		}
	case "sp":
		main = func(r *mpi.Rank) {
			nas.RunSP(r, nas.SPParams{
				Params:   nas.Params{Class: nas.ClassS, MaxIters: 1},
				Modified: true,
			})
		}
	default:
		return fail(fmt.Errorf("unknown scenario %q", *scenario))
	}

	res := cluster.Run(cfg, main)
	if err := report.RenderTimeline(stdout, traces, res.Transfers,
		report.TimelineConfig{Width: *width, Duration: res.Duration}); err != nil {
		return fail(err)
	}
	if err := obs.Finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}
