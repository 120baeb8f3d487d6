package main

import (
	"fmt"
	"io"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/comb"
	"ovlp/internal/mpi"
	"ovlp/internal/report"
)

// combMain runs the COMB-style system-level overlap-capability baseline
// (related work the paper contrasts its application-level framework
// with): a two-rank exchange with a sweep of inserted work, under the
// post-work-wait and polling methods, for both long-message protocols.
//
//	ovlp comb [-size 1048576] [-reps 50]
func combMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("comb", stderr)
	size := fs.Int("size", 1<<20, "message size in bytes")
	reps := fs.Int("reps", 50, "iterations per point")
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	work := []time.Duration{
		0, 250 * time.Microsecond, 500 * time.Microsecond,
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
	}
	for _, proto := range []mpi.LongProtocol{mpi.PipelinedRDMA, mpi.DirectRDMARead} {
		for _, method := range []comb.Method{comb.PostWorkWait, comb.Polling} {
			pts := comb.Config{
				Method:   method,
				Protocol: proto,
				MsgSize:  *size,
				Work:     work[1:], // base measured internally
				Reps:     *reps,
				Cluster:  cluster.Config{Backend: bf.Backend()},
			}.Run()
			t := report.NewTable(
				fmt.Sprintf("COMB %s, %s, %d KiB messages", method, proto, *size>>10),
				"work", "elapsed", "availability", "overlap eff.")
			for _, p := range pts {
				t.AddRow(p.Work, p.Elapsed.Round(time.Microsecond),
					fmt.Sprintf("%.2f", p.Availability),
					fmt.Sprintf("%.2f", p.OverlapEfficiency))
			}
			t.Render(stdout)
			fmt.Fprintln(stdout)
		}
	}
	return 0
}
