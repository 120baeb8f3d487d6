package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"ovlp/internal/diagnose"
	"ovlp/internal/regress"
)

// benchgateMain is the benchmark-regression gate: it runs the fixed
// measurement suites of internal/regress and either writes fresh
// baseline files or compares against committed ones, exiting non-zero
// on any violation — the CI hook that keeps wall time, overlap bounds
// and critical-path length from drifting unnoticed.
//
//	ovlp benchgate [-dir results] [-suites overlap,nas,coll] [-tol 2] [-write] [-explain]
//
// Baselines live at <dir>/BENCH_<suite>.json. -write regenerates them
// (commit the result); without it the gate compares and reports. The
// workloads run on the virtual-time simulator, so an unchanged tree
// reproduces its baselines byte for byte and the default tolerance
// exists only to absorb deliberate small model adjustments.
//
// Every violation prints as one machine-parseable line,
//
//	gate suite=<s> entry=<e> metric=<m> want=<w> got=<g> delta=<d> tol=<t>: <detail>
//
// so CI scripts can grep a failed run by suite/entry/metric without
// parsing the human sentence at the end.
//
// -explain hands a regression to the diagnosis engine: the suites run
// with artifact capture (blame profile + windowed snapshot per entry),
// and every regressed entry gets an "explain <suite>/<entry>: ..."
// line naming the dominant blame cause behind its bound gap plus the
// engine's ranked findings. The capture is a pure observer — the
// measured numbers are identical either way.
//
// -inject-pct inflates the measured wall time and critical path by the
// given percentage before comparing — a self-test hook proving the
// gate trips (see the CI job and internal/regress tests).
//
// Exit status: 0 gate passes, 1 violations or a missing/unreadable
// baseline, 2 bad flags or an unknown suite name.
func benchgateMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("benchgate", stderr)
	dir := fs.String("dir", "results", "directory holding BENCH_<suite>.json baselines")
	suitesFlag := fs.String("suites", "overlap,nas,coll", "comma-separated suites to run")
	tol := fs.Float64("tol", 2, "tolerance: percent for durations, percentage points for overlap bounds")
	write := fs.Bool("write", false, "write fresh baselines instead of comparing")
	explain := fs.Bool("explain", false, "diagnose regressed entries (dominant blame cause + ranked findings)")
	inject := fs.Float64("inject-pct", 0, "inflate measured durations by this percent (gate self-test)")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	runners := regress.Suites()
	traced := regress.SuitesTraced()
	// Validate every suite name before any measurement runs.
	var names []string
	for _, name := range strings.Split(*suitesFlag, ",") {
		name = strings.TrimSpace(name)
		if _, ok := runners[name]; !ok {
			fmt.Fprintf(stderr, "benchgate: unknown suite %q (have: overlap, nas, coll)\n", name)
			return 2
		}
		names = append(names, name)
	}

	failed := false
	for _, name := range names {
		path := filepath.Join(*dir, "BENCH_"+name+".json")
		var got *regress.Baseline
		var arts []regress.Artifact
		if *explain {
			got, arts = traced[name]()
		} else {
			got = runners[name]()
		}
		if *inject != 0 {
			for i := range got.Entries {
				e := &got.Entries[i]
				e.WallNS += int64(float64(e.WallNS) * *inject / 100)
				e.CritPathNS += int64(float64(e.CritPathNS) * *inject / 100)
			}
		}
		if *write {
			if err := got.Save(path); err != nil {
				fmt.Fprintf(stderr, "benchgate: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s (%d entries)\n", path, len(got.Entries))
			continue
		}
		want, err := regress.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: reading baseline: %v (run benchgate -write and commit)\n", err)
			return 1
		}
		bad := regress.Compare(got, want, *tol)
		if len(bad) == 0 {
			fmt.Fprintf(stdout, "%s: ok (%d entries within %g%%)\n", name, len(got.Entries), *tol)
			continue
		}
		failed = true
		fmt.Fprintf(stdout, "%s: FAIL\n", name)
		for _, v := range bad {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
		if *explain {
			explainSuite(stdout, name, bad, arts)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// explainSuite diagnoses every regressed entry from the captured
// artifacts: one line naming the dominant blame cause behind the
// entry's bound gap, then the diagnosis engine's ranked findings.
func explainSuite(stdout io.Writer, suite string, bad []regress.Violation, arts []regress.Artifact) {
	regressed := map[string]bool{}
	all := false
	for _, v := range bad {
		if v.Entry == "" {
			all = true // suite-level mismatch: explain everything
			continue
		}
		regressed[v.Entry] = true
	}
	for _, a := range arts {
		if !all && !regressed[a.Entry] {
			continue
		}
		story := diagnose.Explain(a.Profile)
		if story == "" {
			story = "no bound gap to explain"
		}
		fmt.Fprintf(stdout, "explain %s/%s: %s\n", suite, a.Entry, story)
		rep := diagnose.Analyze(diagnose.Input{
			Profile:  a.Profile,
			TimeRes:  a.TimeRes,
			Duration: a.Profile.Duration,
			Procs:    a.Profile.Ranks,
		})
		if err := diagnose.WriteText(stdout, rep); err != nil {
			fmt.Fprintf(stdout, "  (diagnosis unavailable: %v)\n", err)
		}
	}
}
