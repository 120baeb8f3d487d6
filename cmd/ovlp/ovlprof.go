package main

import (
	"fmt"
	"io"
	"os"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/diagnose"
	"ovlp/internal/fabric"
	"ovlp/internal/profile"
	"ovlp/internal/timeres"
)

// ovlprofMain analyzes an exported Chrome trace-event file offline: it
// replays the overlap instrumentation's event stream, attributes every
// non-overlapped microsecond of each call site to a blame category
// (late initiation, early wait, protocol choice, progress starvation,
// fault retransmits), and extracts the run's critical path through the
// cross-rank happens-before graph. See internal/profile.
//
//	ovlp ovlprof [-calib table.txt] [-top 10] [-csv|-folded|-json] trace.json
//	ovlp ovlprof -timeresolved [-window 100us] [-csv|-json] trace.json
//	ovlp ovlprof -diagnose [-window 100us] [-json] trace.json
//
// The trace file must come from this repo's exporter (cluster runs
// with -trace, or tracecat merges). Transfer times are interpolated
// from a calibration table: pass the run's own table with -calib
// (cluster.Calibrate + calib.Table.Save), or omit it to calibrate one
// on the default cost model — exact for every run that used the
// default model, which all shipped drivers do.
//
// -csv emits one row per call site with the full blame breakdown;
// -folded emits folded-stack lines for flamegraph.pl (blame stacks and
// critical-path stacks); -json the full profile document. The default
// is a human-readable text report; -top caps its call-site table.
//
// -timeresolved switches to the windowed efficiency view (see
// internal/timeres): rolling-window and per-phase parallel/load-
// balance/communication/transfer/serialization efficiencies with
// per-window overlap bounds; -csv and -json select the deterministic
// machine formats, the default is text tables. An empty or span-free
// trace exits non-zero with a named error instead of emitting an
// empty report.
//
// -diagnose runs the automated diagnosis engine (internal/diagnose)
// over the profile and the windowed efficiencies and prints the ranked
// findings — straggler ranks, retransmit storms, progress starvation,
// phase collapse, serialization hotspots, idle tails — instead of the
// raw tables.
func ovlprofMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("ovlprof", stderr)
	calibPath := fs.String("calib", "", "calibration table file (default: calibrate on the default cost model)")
	top := fs.Int("top", 10, "call sites to list in the text report (0 = all)")
	csvOut := fs.Bool("csv", false, "emit CSV instead of the text report")
	folded := fs.Bool("folded", false, "emit folded-stack lines (flamegraph.pl input)")
	jsonOut := fs.Bool("json", false, "emit the full document as JSON")
	timeResolved := fs.Bool("timeresolved", false, "emit time-resolved windowed efficiency metrics instead of the blame profile")
	diagnoseOut := fs.Bool("diagnose", false, "emit ranked diagnosis findings (see internal/diagnose) instead of the raw profile")
	window := fs.Duration("window", timeres.DefaultWindow, "rolling-window length for -timeresolved and -diagnose")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := failWith(stderr, "ovlprof", 1)
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ovlprof [flags] trace.json (\"-\" for stdin)")
		return 2
	}
	if n := count(*csvOut, *folded, *jsonOut); n > 1 {
		fmt.Fprintln(stderr, "ovlprof: pass at most one of -csv, -folded, -json")
		return 2
	}
	if *timeResolved && *folded {
		fmt.Fprintln(stderr, "ovlprof: -folded does not apply to -timeresolved")
		return 2
	}
	if *diagnoseOut && (*folded || *csvOut || *timeResolved) {
		fmt.Fprintln(stderr, "ovlprof: -diagnose combines only with -json")
		return 2
	}

	table, err := loadTable(*calibPath)
	if err != nil {
		return fail(err)
	}
	in, err := loadTrace(fs.Arg(0), table)
	if err != nil {
		return fail(err)
	}

	if *diagnoseOut {
		p, err := profile.Analyze(in)
		if err != nil {
			return fail(err)
		}
		s, err := timeres.FromInput(in, timeres.Options{Window: *window})
		if err != nil {
			return fail(err)
		}
		rep := diagnose.Analyze(diagnose.Input{
			Profile: p, TimeRes: s, Duration: p.Duration, Procs: p.Ranks,
		})
		if *jsonOut {
			err = diagnose.WriteJSON(stdout, rep)
		} else {
			err = diagnose.WriteText(stdout, rep)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}

	if *timeResolved {
		s, err := timeres.FromInput(in, timeres.Options{Window: *window})
		if err != nil {
			return fail(err)
		}
		switch {
		case *csvOut:
			err = s.WriteCSV(stdout)
		case *jsonOut:
			err = s.WriteJSON(stdout)
		default:
			err = s.WriteText(stdout)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}

	p, err := profile.Analyze(in)
	if err != nil {
		return fail(err)
	}
	switch {
	case *csvOut:
		err = p.WriteCSV(stdout)
	case *folded:
		err = p.WriteFolded(stdout)
	case *jsonOut:
		err = p.EncodeJSON(stdout)
	default:
		err = p.WriteText(stdout, *top)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

func count(bs ...bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// loadTable reads the -calib table of ovlprof and ovldiff, or
// calibrates the default cost model when path is empty.
func loadTable(path string) (*calib.Table, error) {
	if path == "" {
		return cluster.Calibrate(fabric.CostModel{}, nil, 0), nil
	}
	t, err := calib.Load(path)
	if err != nil {
		return nil, fmt.Errorf("reading calibration table: %w", err)
	}
	return t, nil
}

// loadTrace ingests one exported trace file ("-" for stdin), priced by
// table, and rejects one with no span to analyze.
func loadTrace(path string, table *calib.Table) (profile.Input, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return profile.Input{}, err
		}
		defer f.Close()
		r = f
	}
	in, err := profile.FromChromeJSON(r, table)
	if err == nil {
		err = in.CheckNonEmpty()
	}
	if err != nil {
		return profile.Input{}, fmt.Errorf("%s: %w", path, err)
	}
	return in, nil
}
