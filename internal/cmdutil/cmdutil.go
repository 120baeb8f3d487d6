// Package cmdutil collects the flag-handling chores the experiment
// binaries used to duplicate: parsing processor-count sweeps,
// validating a fault plan against the smallest machine in a sweep, and
// the shared -trace/-metrics observability flags that hand every
// driver the same trace.Tracer plumbing.
package cmdutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/diagnose"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/profile"
	"ovlp/internal/progress"
	"ovlp/internal/timeres"
	"ovlp/internal/trace"
)

// Version returns the binary's build identity from the embedded build
// info: module version, VCS revision (with a +dirty marker when the
// working tree was modified) and the Go toolchain. It never fails —
// a stripped binary reports "ovlp devel".
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "ovlp devel"
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	out := "ovlp " + ver
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev != "" {
		out += " " + rev + dirty
	}
	if bi.GoVersion != "" {
		out += " " + bi.GoVersion
	}
	return out
}

// RegisterVersion installs the -version flag on fs (the default
// command-line set when fs is nil). Drivers check the returned bool
// after parsing: when set, print Version() and exit 0 before doing any
// work.
func RegisterVersion(fs *flag.FlagSet) *bool {
	if fs == nil {
		fs = flag.CommandLine
	}
	return fs.Bool("version", false, "print the build identity and exit")
}

// ParseProcs parses a comma-separated list of processor counts,
// falling back to def when the flag was left empty.
func ParseProcs(s string, def []int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// BackendFlag is the shared -backend flag state: which execution
// substrate (cluster.Backend) the driver's runs use.
type BackendFlag struct {
	b cluster.Backend
}

// RegisterBackend installs the -backend flag on fs (the default
// command-line set when fs is nil). The value is validated at parse
// time; the default is the virtual backend.
func RegisterBackend(fs *flag.FlagSet) *BackendFlag {
	if fs == nil {
		fs = flag.CommandLine
	}
	bf := &BackendFlag{}
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
func (bf *BackendFlag) Backend() cluster.Backend { return bf.b }

// Real reports whether the real backend was selected.
func (bf *BackendFlag) Real() bool { return bf.b == cluster.BackendReal }

// Apply copies the selection into a cluster.Config.
func (bf *BackendFlag) Apply(cfg *cluster.Config) { cfg.Backend = bf.b }

// Coll holds the shared nonblocking-collective flag state: which
// schedule algorithm to build, the pipelining chunk, and which
// progress engine advances pending schedules.
type Coll struct {
	// Algo is the -coll-algo schedule algorithm.
	Algo coll.Algo
	// Chunk is the -coll-chunk pipelining size in bytes (0 = whole
	// payload in one stage).
	Chunk int
	// Mode is the -progress engine selection.
	Mode progress.Mode
	// Quantum is the -progress-quantum thread wake interval.
	Quantum time.Duration
}

// RegisterColl installs the -coll-algo, -coll-chunk, -progress and
// -progress-quantum flags on fs (the default command-line set when fs
// is nil). Values are validated at parse time.
func RegisterColl(fs *flag.FlagSet) *Coll {
	if fs == nil {
		fs = flag.CommandLine
	}
	c := &Coll{Quantum: progress.DefaultQuantum}
	fs.Func("coll-algo", "collective schedule algorithm: auto, binomial, ring or recdouble", func(s string) error {
		a, err := coll.ParseAlgo(s)
		if err != nil {
			return err
		}
		c.Algo = a
		return nil
	})
	fs.IntVar(&c.Chunk, "coll-chunk", 0, "pipeline collective payloads in chunks of this many bytes (0 = unchunked)")
	fs.Func("progress", "progress engine for nonblocking collectives: manual, piggyback or thread", func(s string) error {
		m, err := progress.ParseMode(s)
		if err != nil {
			return err
		}
		c.Mode = m
		return nil
	})
	fs.DurationVar(&c.Quantum, "progress-quantum", progress.DefaultQuantum, "wake quantum of the thread progress engine")
	return c
}

// Progress returns the selected engine configuration.
func (c *Coll) Progress() progress.Config {
	return progress.Config{Mode: c.Mode, Quantum: c.Quantum}
}

// Apply copies the collective selections into an mpi.Config.
func (c *Coll) Apply(cfg *mpi.Config) {
	cfg.CollAlgo = c.Algo
	cfg.CollChunk = c.Chunk
	cfg.Progress = c.Progress()
}

// Obs holds the observability flag state: -trace enables full
// span/instant collection and writes a Chrome trace-event file,
// -metrics prints the registry snapshot as text, -profile runs the
// critical-path/blame profiler over the collected events, and
// -diagnose feeds the profile and a windowed snapshot to the
// diagnosis engine and writes its ranked findings. Any of them alone
// works; -metrics without -trace, -profile or -diagnose runs the
// tracer in metrics-only mode so no ring memory is spent on events
// nobody will export.
type Obs struct {
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

// RegisterObs installs the -trace and -metrics flags on fs (the
// default command-line set when fs is nil).
func RegisterObs(fs *flag.FlagSet) *Obs {
	if fs == nil {
		fs = flag.CommandLine
	}
	o := &Obs{}
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
func (o *Obs) Enabled() bool {
	return o != nil && (o.TracePath != "" || o.Metrics || o.ProfilePath != "" ||
		o.TimeResolvedPath != "" || o.DiagnosePath != "")
}

// Tracer returns the tracer to hand to cluster.Config.Trace, creating
// it on first call, or nil when no observability flag was set (a nil
// tracer disables instrumentation everywhere).
func (o *Obs) Tracer() *trace.Tracer {
	if !o.Enabled() {
		return nil
	}
	if o.tr == nil {
		// The diagnosis engine replays the retained events through the
		// profiler, so -diagnose needs full retention just like -profile.
		o.tr = trace.New(trace.Options{
			MetricsOnly: o.TracePath == "" && o.ProfilePath == "" && o.DiagnosePath == "",
			Generator:   Version(),
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
func (o *Obs) SetRun(table *calib.Table, reports []*overlap.Report) {
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

// Finish writes the requested outputs: the trace file (if -trace) and
// the metrics table on w (if -metrics). Call it once, after the
// traced run completes.
func (o *Obs) Finish(w io.Writer) error {
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
	if o.ProfilePath != "" {
		if err := o.writeProfile(w); err != nil {
			return fmt.Errorf("profile: %w", err)
		}
	}
	if o.TimeResolvedPath != "" && o.tres != nil {
		if err := o.writeTimeRes(w); err != nil {
			return fmt.Errorf("timeresolved: %w", err)
		}
	}
	if o.DiagnosePath != "" {
		if err := o.writeDiagnose(w); err != nil {
			return fmt.Errorf("diagnose: %w", err)
		}
	}
	return nil
}

// writeDiagnose runs the diagnosis engine over the traced run — the
// blame profile plus a windowed snapshot rebuilt from the same event
// stream — and writes the ranked findings.
func (o *Obs) writeDiagnose(w io.Writer) error {
	table := o.table
	if table == nil {
		table = cluster.Calibrate(fabric.CostModel{}, nil, 0)
	}
	in := profile.FromTracer(o.tr, table, o.reports)
	p, err := profile.Analyze(in)
	if err != nil {
		return err
	}
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
	err = createWith(o.DiagnosePath, func(f io.Writer) error {
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

func (o *Obs) writeTimeRes(w io.Writer) error {
	table := o.table
	if table == nil {
		table = cluster.Calibrate(fabric.CostModel{}, nil, 0)
	}
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
func (o *Obs) runDuration() time.Duration {
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

func (o *Obs) writeProfile(w io.Writer) error {
	table := o.table
	if table == nil {
		table = cluster.Calibrate(fabric.CostModel{}, nil, 0)
	}
	p, err := profile.Analyze(profile.FromTracer(o.tr, table, o.reports))
	if err != nil {
		return err
	}
	if o.ProfilePath == "-" {
		return p.WriteText(w, o.ProfileTop)
	}
	err = createWith(o.ProfilePath, func(f io.Writer) error {
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
