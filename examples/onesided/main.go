// Onesided: overlap with one-sided (ARMCI-style) communication —
// blocking versus non-blocking puts, the contrast of the paper's
// Sec. 4.4 (ARMCI MG study, Fig. 19).
//
// Each process streams blocks to its right neighbour while computing
// on the next block. With blocking Put, every transfer begins and ends
// inside one library call and the instrumentation proves zero overlap;
// with NbPut + deferred WaitHandle, the NIC moves data underneath the
// computation and the bounds approach 100%.
//
// Run with: go run ./examples/onesided
package main

import (
	"fmt"
	"os"
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/cluster"
	"ovlp/internal/report"
)

func main() {
	const (
		procs  = 4
		block  = 512 << 10
		steps  = 30
		crunch = 800 * time.Microsecond
	)

	run := func(nonblocking bool) cluster.ARMCIResult {
		res, err := cluster.RunARMCI(cluster.ARMCIConfig{
			Procs: procs,
			ARMCI: armci.Config{Instrument: &armci.InstrumentConfig{}},
		}, func(p *armci.Proc) {
			right := (p.ID() + 1) % p.Size()
			for s := 0; s < steps; s++ {
				if nonblocking {
					h := p.NbPut(right, block)
					p.Compute(crunch) // produce the next block meanwhile
					p.WaitHandle(h)
				} else {
					p.Put(right, block)
					p.Compute(crunch)
				}
			}
			p.Barrier()
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "onesided:", err)
			os.Exit(1)
		}
		return res
	}

	t := report.NewTable("one-sided streaming pipeline — blocking vs non-blocking puts",
		"variant", "min overlap%", "max overlap%", "lib time", "run time")
	for _, nb := range []bool{false, true} {
		name := "Put (blocking)"
		if nb {
			name = "NbPut + WaitHandle"
		}
		res := run(nb)
		tot := res.Reports[0].Total()
		t.AddRow(name, tot.MinPercent(), tot.MaxPercent(),
			res.LibTimes[0].Round(time.Microsecond),
			res.Duration.Round(time.Microsecond))
	}
	t.Render(os.Stdout)
	fmt.Println("\nOne-sided operations complete asynchronously on the NIC, so simply")
	fmt.Println("splitting initiation from completion converts all of the transfer")
	fmt.Println("time into hidden time — the effect the paper measures at 99% for the")
	fmt.Println("non-blocking ARMCI port of NAS MG.")
}
