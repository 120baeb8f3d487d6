// Calibrate measures the interconnect's transfer time for a ladder of
// message sizes and writes the table the overlap instrumentation loads
// at startup — the analogue of running the vendor's perf_main utility
// before an instrumented application run (paper Sec. 3.1).
//
// Usage:
//
//	calibrate [-out calib.table] [-reps 5] [-backend virtual|real]
//
// -backend virtual (the default) measures the deterministic simulated
// fabric; -backend real times the same transfers waited out on the wall
// clock. The resulting table is stamped with its clock domain, and
// runs reject a table measured on the other kind of clock — virtual
// transfer costs say nothing about the machine's real wire, and vice
// versa.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/cmdutil"
	"ovlp/internal/fabric"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	out := flag.String("out", "calib.table", "output file for the transfer-time table")
	reps := flag.Int("reps", 5, "repetitions per message size")
	bf := cmdutil.RegisterBackend(nil)
	flag.Parse()

	cost := fabric.DefaultCostModel()
	table := cluster.CalibrateBackend(bf.Backend(), nil, cost, calib.StandardSizes(), *reps)
	if err := table.Save(*out); err != nil {
		log.Fatal(err)
	}
	points := table.Points()
	fmt.Printf("calibrated %d message sizes (%d reps each, %s clock) -> %s\n",
		len(points), *reps, table.Domain(), *out)
	for _, p := range points {
		if p.Size == 1 || p.Size&(p.Size-1) == 0 && p.Size >= 1<<10 {
			fmt.Printf("  %9d B  %12v\n", p.Size, p.Time)
		}
	}
	_ = os.Stdout.Sync()
}
