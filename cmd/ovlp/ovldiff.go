package main

import (
	"fmt"
	"io"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/diagnose"
	"ovlp/internal/profile"
	"ovlp/internal/timeres"
)

// ovldiffMain is the run-to-run differential profiler: it takes two
// exported Chrome trace files of the same workload (different seed,
// config, or commit), replays each through the blame profiler and the
// time-resolved analyzer, aligns them site-by-site and window-by-
// window, and attributes the bound-gap delta per blame cause — then
// explains the movement with structured findings ("regression
// explained: +38% bound gap from fault-retransmit at exchange/Isend").
// See internal/diagnose (diff.go).
//
//	ovlp ovldiff [-calib table.txt] [-window 100us] [-csv|-json] a.json b.json
//
// a.json is the baseline, b.json the candidate; deltas are B − A.
// Per-cause deltas always sum exactly to the total max−min bound-gap
// delta (the profiler conserves blame, the diff inherits it), and
// diffing a trace against itself reports zero deltas and zero
// findings. Transfer times are priced from a calibration table: pass
// the runs' own with -calib or omit it to calibrate the default cost
// model. -csv emits one machine-parseable section,key,a,b,delta table;
// -json the full schema-versioned document; default is text.
func ovldiffMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("ovldiff", stderr)
	calibPath := fs.String("calib", "", "calibration table file (default: calibrate on the default cost model)")
	window := fs.Duration("window", timeres.DefaultWindow, "rolling-window length for window alignment")
	csvOut := fs.Bool("csv", false, "emit the delta table as CSV")
	jsonOut := fs.Bool("json", false, "emit the full diff document as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := failWith(stderr, "ovldiff", 1)
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: ovldiff [flags] a.json b.json (baseline first)")
		return 2
	}
	if *csvOut && *jsonOut {
		fmt.Fprintln(stderr, "ovldiff: pass at most one of -csv, -json")
		return 2
	}

	table, err := loadTable(*calibPath)
	if err != nil {
		return fail(err)
	}

	sides := [2]diagnose.Run{}
	for i, path := range []string{fs.Arg(0), fs.Arg(1)} {
		r, err := loadRun(path, table, *window)
		if err != nil {
			return fail(err)
		}
		sides[i] = r
	}

	d, err := diagnose.Diff(sides[0], sides[1])
	if err != nil {
		return fail(err)
	}
	switch {
	case *csvOut:
		err = diagnose.WriteDiffCSV(stdout, d)
	case *jsonOut:
		err = diagnose.WriteDiffJSON(stdout, d)
	default:
		err = diagnose.WriteDiffText(stdout, d)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// loadRun replays one trace file into the diff's per-side artifacts:
// the blame profile and the windowed efficiency snapshot.
func loadRun(path string, table *calib.Table, window time.Duration) (diagnose.Run, error) {
	in, err := loadTrace(path, table)
	if err != nil {
		return diagnose.Run{}, err
	}
	p, err := profile.Analyze(in)
	if err != nil {
		return diagnose.Run{}, fmt.Errorf("%s: %w", path, err)
	}
	s, err := timeres.FromInput(in, timeres.Options{Window: window})
	if err != nil {
		return diagnose.Run{}, fmt.Errorf("%s: %w", path, err)
	}
	return diagnose.Run{Label: path, Profile: p, TimeRes: s}, nil
}
