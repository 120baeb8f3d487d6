// Timeline renders an ASCII activity chart of a small instrumented
// run: per rank, one lane showing library-versus-compute occupancy and
// one showing when that rank's NIC had data on the wire (ground
// truth). Wire activity above compute is hidden communication; above
// library time it is exposed — achieved overlap, visible directly.
//
// Usage:
//
//	timeline [-scenario ring|ring-probe|sp] [-procs 4] [-width 100]
//	         [-trace out.json] [-metrics]
//
// -trace exports the same run as Chrome trace-event JSON — the
// zoomable twin of the ASCII chart — and -metrics prints its counters.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/cmdutil"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/overlap"
	"ovlp/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("timeline: ")
	scenario := flag.String("scenario", "ring", "ring, ring-probe, or sp")
	procs := flag.Int("procs", 4, "number of ranks")
	width := flag.Int("width", 100, "chart width in columns")
	obs := cmdutil.RegisterObs(nil)
	bf := cmdutil.RegisterBackend(nil)
	ver := cmdutil.RegisterVersion(nil)
	flag.Parse()
	if *ver {
		fmt.Println(cmdutil.Version())
		return
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
		log.Fatalf("unknown scenario %q", *scenario)
	}

	res := cluster.Run(cfg, main)
	if err := report.RenderTimeline(os.Stdout, traces, res.Transfers,
		report.TimelineConfig{Width: *width, Duration: res.Duration}); err != nil {
		log.Fatal(err)
	}
	if err := obs.Finish(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
