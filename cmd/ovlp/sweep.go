package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ovlp/internal/scenario"
)

// sweepMain runs specs (scenario.ParseSpec), each a scenario varied
// along its sweep axes and printed as one table followed by a blank
// line: specs/fig*.yaml are the paper's figures, specs/comb-*.yaml the
// COMB baseline. The fault flags replace every point's fault plan; the
// observability flags trace the last run of the last point of the last
// spec; -json writes every run's per-rank reports. A bad flag or spec
// exits 2 before any run; a failed run exits 1.
//
//	ovlp sweep [-smoke] [-backend virtual|real] [-json DIR] [-fault-seed N -drop P -stall ...]
//	           [-trace out.json] [-metrics] [-profile out.txt] [-diagnose -] spec.yaml...
func sweepMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("sweep", stderr)
	smoke := fs.Bool("smoke", false, "shrink every point's reps and iterations for CI")
	jsonDir := fs.String("json", "", "directory to write every run's per-rank JSON reports into (inspect with ovlpreport)")
	ff := registerFaults(fs, false)
	obs := registerObs(fs)
	bf := registerBackend(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail2 := failWith(stderr, "sweep", 2)
	fail := failWith(stderr, "sweep", 1)
	if fs.NArg() == 0 {
		return fail2(fmt.Errorf("name at least one spec file, e.g. specs/fig3.yaml"))
	}
	faults, err := ff.Plan()
	if err != nil {
		return fail2(err)
	}
	opts := scenario.SweepOpts{Smoke: *smoke, Backend: bf.Backend(), Faults: faults}
	specs := make([]*scenario.Spec, fs.NArg())
	names := map[string]bool{} // -json names each report after its point
	for i, path := range fs.Args() {
		if specs[i], err = scenario.LoadSpec(path); err == nil {
			err = specs[i].Check(opts)
		}
		if err == nil && *jsonDir != "" && names[specs[i].Points[0].Name] {
			err = fmt.Errorf("%s: -json needs specs of distinct names, and %s is taken", path, specs[i].Points[0].Name)
		}
		if err != nil {
			return fail2(err)
		}
		names[specs[i].Points[0].Name] = true
	}
	if desc := describeFaults(faults); desc != "" {
		fmt.Fprintf(stdout, "%s\n\n", desc)
	}
	var last []scenario.Measure
	for i, sp := range specs {
		if i == len(specs)-1 {
			opts.Trace = obs.Tracer()
		}
		if last, err = sp.Run(opts); err != nil {
			return fail(err)
		}
		sp.Table(last).Render(stdout)
		fmt.Fprintln(stdout)
		if *jsonDir != "" {
			if err := saveReports(*jsonDir, last); err != nil {
				return fail(err)
			}
		}
	}
	res := last[len(last)-1].Last()
	obs.SetRun(res.Calib, res.Reports)
	if err := obs.Finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}

// saveReports writes one JSON report file per rank of every
// instrumented run, named <point>-<index>-<run>-rank<r>.json.
func saveReports(dir string, ms []scenario.Measure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range ms {
		for _, r := range ms[i].Runs {
			for _, rep := range r.Res.Reports {
				if rep == nil {
					continue
				}
				name := fmt.Sprintf("%s-%d-%s-rank%d.json", ms[i].Point.Name, i, r.Name(), rep.Rank)
				if err := rep.SaveJSON(filepath.Join(dir, name)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
