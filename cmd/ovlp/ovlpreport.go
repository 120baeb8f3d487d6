package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"ovlp/internal/overlap"
	"ovlp/internal/report"
)

// ovlpreportMain inspects and merges the per-process JSON report files
// the instrumentation writes (one per rank, as in the paper's
// per-process output files): it prints each rank's summary and the
// whole-job aggregate, with optional per-region and per-message-size
// detail. Given process 0's file alone, -bins is the "short versus
// long" breakdown the paper uses to attribute non-overlapped time to
// particular transfers.
//
//	ovlp ovlpreport [-regions] [-bins] rank0.json rank1.json ...
func ovlpreportMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("ovlpreport", stderr)
	regions := fs.Bool("regions", false, "print per-region detail for the aggregate")
	bins := fs.Bool("bins", false, "print the aggregate's per-message-size-bin breakdown")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "ovlpreport: usage: ovlpreport [-regions] [-bins] report.json ...")
		return 2
	}

	var reps []*overlap.Report
	for _, path := range fs.Args() {
		rep, err := overlap.LoadJSON(path)
		if err != nil {
			fmt.Fprintf(stderr, "ovlpreport: %s: %v\n", path, err)
			return 1
		}
		reps = append(reps, rep)
	}

	t := report.NewTable("Per-rank overlap summary",
		"rank", "run time", "compute", "comm calls", "data xfer", "min%", "max%")
	var mins, maxs []float64
	var minSum, maxSum float64
	for _, rep := range reps {
		tot := rep.Total()
		mins = append(mins, tot.MinPercent())
		maxs = append(maxs, tot.MaxPercent())
		minSum += tot.MinPercent()
		maxSum += tot.MaxPercent()
		t.AddRow(rep.Rank, rep.Duration.Round(time.Microsecond),
			rep.UserComputeTime().Round(time.Microsecond),
			rep.CommCallTime().Round(time.Microsecond),
			tot.DataTransferTime.Round(time.Microsecond),
			tot.MinPercent(), tot.MaxPercent())
	}
	t.Render(stdout)

	agg := overlap.Aggregate(reps)
	tot := agg.Total()
	fmt.Fprintf(stdout, "\naggregate: %d transfers, data %v, overlap min %.1f%% max %.1f%%\n",
		tot.Count, tot.DataTransferTime.Round(time.Microsecond),
		tot.MinPercent(), tot.MaxPercent())
	fmt.Fprintf(stdout, "across ranks: min%% mean %.1f (spread %.1f..%.1f), max%% mean %.1f (spread %.1f..%.1f)\n",
		minSum/float64(len(reps)), slices.Min(mins), slices.Max(mins),
		maxSum/float64(len(reps)), slices.Min(maxs), slices.Max(maxs))

	if *regions {
		rt := report.NewTable("\nAggregate per-region detail",
			"region", "xfers", "data xfer", "min%", "max%", "non-overlapped")
		for _, reg := range agg.Regions {
			if reg.Total.Count == 0 {
				continue
			}
			name := reg.Name
			if name == "" {
				name = "(root)"
			}
			rt.AddRow(name, reg.Total.Count,
				reg.Total.DataTransferTime.Round(time.Microsecond),
				reg.Total.MinPercent(), reg.Total.MaxPercent(),
				reg.Total.NonOverlapped().Round(time.Microsecond))
		}
		rt.Render(stdout)
	}
	if *bins {
		bt := report.NewTable("\nAggregate message-size breakdown",
			"size bin", "xfers", "data xfer", "min%", "max%", "non-overlapped")
		sum := make([]overlap.Measures, len(agg.BinBounds)+1)
		for _, reg := range agg.Regions {
			for i, b := range reg.Bins {
				sum[i].Add(b)
			}
		}
		for i, b := range sum {
			if b.Count > 0 {
				bt.AddRow(overlap.BinLabel(agg.BinBounds, i), b.Count,
					b.DataTransferTime.Round(time.Microsecond),
					b.MinPercent(), b.MaxPercent(),
					b.NonOverlapped().Round(time.Microsecond))
			}
		}
		bt.Render(stdout)
	}
	return 0
}
