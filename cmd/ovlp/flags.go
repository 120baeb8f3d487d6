package main

// The flag groups the subcommands share: the execution backend and the
// -trace/-metrics/-profile/-timeresolved/-diagnose observability
// outputs, which hand every driver the same trace.Tracer plumbing.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/diagnose"
	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
	"ovlp/internal/profile"
	"ovlp/internal/timeres"
	"ovlp/internal/trace"
)

// parseList parses the comma-separated elements of a flag value with
// parse. With skipBlank, elements that are blank are dropped and the
// rest trimmed (stall and crash lists tolerate stray commas);
// otherwise parse sees each element as written.
func parseList[T any](s string, skipBlank bool, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		if skipBlank {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
		}
		v, err := parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// backendFlag is the shared -backend flag state: which execution
// substrate (cluster.Backend) the driver's runs use.
type backendFlag struct {
	b cluster.Backend
}

// registerBackend installs the -backend flag on fs. The value is
// validated at parse time; the default is the virtual backend.
func registerBackend(fs *flag.FlagSet) *backendFlag {
	bf := &backendFlag{}
	fs.Func("backend", "execution backend: virtual (deterministic simulation, default) or real (the same simulation waiting out every modelled cost on the wall clock)", func(s string) error {
		b, err := cluster.ParseBackend(s)
		if err != nil {
			return err
		}
		bf.b = b
		return nil
	})
	return bf
}

// Backend returns the selected backend (BackendVirtual before parsing
// or when the flag was not given).
func (bf *backendFlag) Backend() cluster.Backend { return bf.b }

// obsFlags holds the observability flag state: -trace enables full
// span/instant collection and writes a Chrome trace-event file,
// -metrics prints the registry snapshot as text, -profile runs the
// critical-path/blame profiler over the collected events, and
// -diagnose feeds the profile and a windowed snapshot to the
// diagnosis engine and writes its ranked findings. Any of them alone
// works; -metrics without -trace, -profile or -diagnose runs the
// tracer in metrics-only mode so no ring memory is spent on events
// nobody will export.
type obsFlags struct {
	// TracePath is the -trace output file ("" = tracing off).
	TracePath string
	// Metrics is the -metrics switch.
	Metrics bool
	// ProfilePath is the -profile output ("" = profiling off). The
	// extension selects the format: .json, .csv, .folded, anything
	// else a text report; "-" prints the text report to the Finish
	// writer.
	ProfilePath string
	// ProfileTop caps the text report's call-site table (-profile-top).
	ProfileTop int
	// TimeResolvedPath is the -timeresolved output ("" = off). The
	// extension selects the format: .json, .csv, anything else a text
	// table; "-" prints the text table to the Finish writer. The
	// analyzer taps the trace stream live, so it works in metrics-only
	// mode too.
	TimeResolvedPath string
	// TimeResWindow is the -timeres-window rolling-window length.
	TimeResWindow time.Duration
	// DiagnosePath is the -diagnose output ("" = off): the diagnosis
	// engine (internal/diagnose) runs over the traced run's blame
	// profile and windowed snapshot and writes its ranked findings —
	// .json selects the schema-versioned JSON, anything else the text
	// report; "-" prints the text report to the Finish writer.
	DiagnosePath string

	tr       *trace.Tracer
	tres     *timeres.Analyzer
	table    *calib.Table
	reports  []*overlap.Report
	crashes  []diagnose.Crash
	recovery *diagnose.Recovery
}

// registerObs installs the observability flags on fs.
func registerObs(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.TracePath, "trace", "", "write a Chrome trace-event JSON file (open in Perfetto) to this path")
	fs.BoolVar(&o.Metrics, "metrics", false, "print the run's metrics registry after the sweep")
	fs.StringVar(&o.ProfilePath, "profile", "", "write a critical-path/blame profile to this path (.json/.csv/.folded by extension, text otherwise, \"-\" for stdout)")
	fs.IntVar(&o.ProfileTop, "profile-top", 10, "call sites to list in the text profile (0 = all)")
	fs.StringVar(&o.TimeResolvedPath, "timeresolved", "", "write time-resolved efficiency metrics to this path (.json/.csv by extension, text otherwise, \"-\" for stdout)")
	fs.DurationVar(&o.TimeResWindow, "timeres-window", timeres.DefaultWindow, "rolling-window length for -timeresolved")
	fs.StringVar(&o.DiagnosePath, "diagnose", "", "write the run's ranked diagnosis findings to this path (.json by extension, text otherwise, \"-\" for stdout)")
	return o
}

// Enabled reports whether any observability output was requested.
func (o *obsFlags) Enabled() bool {
	return o != nil && (o.TracePath != "" || o.Metrics || o.ProfilePath != "" ||
		o.TimeResolvedPath != "" || o.DiagnosePath != "")
}

// Tracer returns the tracer to hand to cluster.Config.Trace, creating
// it on first call, or nil when no observability flag was set (a nil
// tracer disables instrumentation everywhere).
func (o *obsFlags) Tracer() *trace.Tracer {
	if !o.Enabled() {
		return nil
	}
	if o.tr == nil {
		// The diagnosis engine replays the retained events through the
		// profiler, so -diagnose needs full retention just like -profile.
		o.tr = trace.New(trace.Options{
			MetricsOnly: o.TracePath == "" && o.ProfilePath == "" && o.DiagnosePath == "",
			Generator:   version(),
		})
		if o.TimeResolvedPath != "" {
			o.tres = timeres.New(timeres.Options{Window: o.TimeResWindow})
			o.tr.AddSink(o.tres)
		}
	}
	return o.tr
}

// SetRun records the traced run's calibration table and reports, which
// the profiler needs for transfer times and region names. Drivers that
// cannot reach them may skip the call: Finish then calibrates a table
// on the default cost model (exact for runs that used it) and falls
// back to positional region labels.
func (o *obsFlags) SetRun(table *calib.Table, reports []*overlap.Report) {
	if o == nil {
		return
	}
	if table != nil {
		o.table = table
	}
	if reports != nil {
		o.reports = reports
	}
}

// Finish writes the requested outputs: the trace file (-trace), the
// metrics table on w (-metrics), the profile, the time-resolved metrics
// and the diagnosis. The calibration table and the blame profile those
// last three share are resolved once. Call it once, after the traced
// run completes.
func (o *obsFlags) Finish(w io.Writer) error {
	if !o.Enabled() || o.tr == nil {
		return nil
	}
	if o.TracePath != "" {
		if err := createWith(o.TracePath, o.tr.WriteChrome); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote trace to %s (%d tracks)\n", o.TracePath, len(o.tr.Tracks()))
	}
	if o.Metrics {
		fmt.Fprintln(w, "metrics:")
		if err := o.tr.Metrics().Snapshot().WriteText(w); err != nil {
			return err
		}
	}
	table := o.table
	if table == nil && (o.ProfilePath != "" || o.TimeResolvedPath != "" || o.DiagnosePath != "") {
		table = cluster.Calibrate(fabric.CostModel{}, nil, 0)
	}
	var in profile.Input
	var p *profile.Profile
	var perr error
	if o.ProfilePath != "" || o.DiagnosePath != "" {
		in = profile.FromTracer(o.tr, table, o.reports)
		p, perr = profile.Analyze(in)
	}
	if o.ProfilePath != "" {
		err := perr
		if err == nil {
			err = o.writeProfile(w, p)
		}
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
	}
	if o.TimeResolvedPath != "" && o.tres != nil {
		if err := o.writeTimeRes(w, table); err != nil {
			return fmt.Errorf("timeresolved: %w", err)
		}
	}
	if o.DiagnosePath != "" {
		err := perr
		if err == nil {
			err = o.writeDiagnose(w, in, p)
		}
		if err != nil {
			return fmt.Errorf("diagnose: %w", err)
		}
	}
	return nil
}

// writeDiagnose runs the diagnosis engine over the traced run — the
// blame profile plus a windowed snapshot rebuilt from the same event
// stream — and writes the ranked findings.
func (o *obsFlags) writeDiagnose(w io.Writer, in profile.Input, p *profile.Profile) error {
	din := diagnose.Input{
		Profile:  p,
		Duration: p.Duration,
		Procs:    p.Ranks,
		Crashes:  o.crashes,
		Recovery: o.recovery,
	}
	if snap, err := timeres.FromInput(in, timeres.Options{Window: o.TimeResWindow}); err == nil {
		din.TimeRes = snap
	}
	rep := diagnose.Analyze(din)
	if o.DiagnosePath == "-" {
		return diagnose.WriteText(w, rep)
	}
	err := createWith(o.DiagnosePath, func(f io.Writer) error {
		if strings.HasSuffix(o.DiagnosePath, ".json") {
			return diagnose.WriteJSON(f, rep)
		}
		return diagnose.WriteText(f, rep)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote diagnosis to %s (%d findings)\n", o.DiagnosePath, len(rep.Findings))
	return nil
}

func (o *obsFlags) writeTimeRes(w io.Writer, table *calib.Table) error {
	o.tres.SetTable(table)
	o.tres.Finalize(o.runDuration())
	if err := o.tres.Err(); err != nil {
		return err
	}
	s := o.tres.Snapshot()
	if o.TimeResolvedPath == "-" {
		return s.WriteText(w)
	}
	err := createWith(o.TimeResolvedPath, func(f io.Writer) error {
		switch {
		case strings.HasSuffix(o.TimeResolvedPath, ".json"):
			return s.WriteJSON(f)
		case strings.HasSuffix(o.TimeResolvedPath, ".csv"):
			return s.WriteCSV(f)
		}
		return s.WriteText(f)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote time-resolved metrics to %s (%d windows, %d phases)\n",
		o.TimeResolvedPath, len(s.Windows), len(s.Phases))
	return nil
}

// createWith creates path and writes it through write, closing the
// file on every path; a failed write is reported before a failed close.
func createWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runDuration recovers the run's virtual wall time from the metrics
// registry (cluster.RunE publishes run.duration_ns); zero lets the
// analyzer fall back to the largest stamp seen.
func (o *obsFlags) runDuration() time.Duration {
	snap := o.tr.Metrics().Snapshot()
	if snap == nil {
		return 0
	}
	for _, g := range snap.Gauges {
		if g.Name == "run.duration_ns" {
			return time.Duration(g.Value)
		}
	}
	return 0
}

func (o *obsFlags) writeProfile(w io.Writer, p *profile.Profile) error {
	if o.ProfilePath == "-" {
		return p.WriteText(w, o.ProfileTop)
	}
	err := createWith(o.ProfilePath, func(f io.Writer) error {
		switch {
		case strings.HasSuffix(o.ProfilePath, ".json"):
			return p.EncodeJSON(f)
		case strings.HasSuffix(o.ProfilePath, ".csv"):
			return p.WriteCSV(f)
		case strings.HasSuffix(o.ProfilePath, ".folded"):
			return p.WriteFolded(f)
		}
		return p.WriteText(f, o.ProfileTop)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote profile to %s (%d sites, critical path %v)\n",
		o.ProfilePath, len(p.Sites), p.Critical.Length)
	return nil
}
