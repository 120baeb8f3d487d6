package main

import (
	"fmt"
	"io"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
)

// calibrateMain measures the interconnect's transfer time for a ladder
// of message sizes and writes the table the overlap instrumentation
// loads at startup — the analogue of running the vendor's perf_main
// utility before an instrumented application run (paper Sec. 3.1).
//
//	ovlp calibrate [-out calib.table] [-reps 5] [-backend virtual|real]
//
// -backend virtual (the default) measures the deterministic simulated
// fabric; -backend real times the same transfers waited out on the wall
// clock. The resulting table is stamped with its clock domain, and
// runs reject a table measured on the other kind of clock — virtual
// transfer costs say nothing about the machine's real wire, and vice
// versa.
func calibrateMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("calibrate", stderr)
	out := fs.String("out", "calib.table", "output file for the transfer-time table")
	reps := fs.Int("reps", 5, "repetitions per message size")
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	cost := fabric.DefaultCostModel()
	table := cluster.CalibrateBackend(bf.Backend(), nil, cost, calib.StandardSizes(), *reps)
	if err := table.Save(*out); err != nil {
		fmt.Fprintf(stderr, "calibrate: %v\n", err)
		return 1
	}
	points := table.Points()
	fmt.Fprintf(stdout, "calibrated %d message sizes (%d reps each, %s clock) -> %s\n",
		len(points), *reps, table.Domain(), *out)
	for _, p := range points {
		if p.Size == 1 || p.Size&(p.Size-1) == 0 && p.Size >= 1<<10 {
			fmt.Fprintf(stdout, "  %9d B  %12v\n", p.Size, p.Time)
		}
	}
	return 0
}
