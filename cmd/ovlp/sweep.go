package main

import (
	"fmt"
	"io"
	"time"

	"ovlp/internal/scenario"
)

// sweepMain runs specs (scenario.ParseSpec), each a scenario varied
// along its sweep axes and printed as one table: specs/fig3.yaml to
// fig9.yaml and fig20.yaml are the paper's figures, specs/comb-*.yaml
// the COMB baseline. The fault flags replace every point's fault plan;
// the observability flags trace the last point of the last spec. A bad
// flag or spec exits 2 before any run; a failed run exits 1.
//
//	ovlp sweep [-smoke] [-backend virtual|real] [-fault-seed N -drop P -stall ...]
//	           [-trace out.json] [-metrics] [-profile out.txt] [-diagnose -] spec.yaml...
func sweepMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("sweep", stderr)
	smoke := fs.Bool("smoke", false, "shrink every point's reps and iterations for CI")
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
	for i, path := range fs.Args() {
		if specs[i], err = scenario.LoadSpec(path); err == nil {
			err = specs[i].Check(opts)
		}
		if err != nil {
			return fail2(err)
		}
	}
	if desc := describeFaults(faults); desc != "" {
		fmt.Fprintf(stdout, "%s\n\n", desc)
	}
	var last []scenario.Measure
	for i, sp := range specs {
		if i == len(specs)-1 {
			opts.Trace = obs.Tracer()
		}
		start := time.Now()
		if last, err = sp.Run(opts); err != nil {
			return fail(err)
		}
		sp.Table(last).Render(stdout)
		// Each kind ends its table as the subcommand it replaced did,
		// so results/*.txt reproduce: a micro sweep with its host time.
		switch sp.Kind() {
		case "micro":
			fmt.Fprintf(stdout, "  (%d points, %v)\n\n", len(last), time.Since(start).Round(time.Millisecond))
		case "comb":
			fmt.Fprintln(stdout)
		}
	}
	res := last[len(last)-1].Res
	obs.SetRun(res.Calib, res.Reports)
	if err := obs.Finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}
