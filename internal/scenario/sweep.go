package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/cluster"
	"ovlp/internal/comb"
	"ovlp/internal/fabric"
	"ovlp/internal/nas"
	"ovlp/internal/overlap"
	"ovlp/internal/report"
	"ovlp/internal/trace"
)

// Spec is a sweep file: a scenario document varied along its axes,
// the runs each point makes, and the table the points print as. The
// paper's figures are committed as specs under specs/.
type Spec struct {
	// Title heads the printed table.
	Title string
	// Columns names the printed columns, from those the points'
	// workload kind measures (see columns).
	Columns []string
	// Region, when set, scopes the overlap-bound columns to that
	// monitored region of process 0; otherwise they read the whole run.
	Region string
	// Points are the sweep's scenarios, first axis outermost.
	Points []*Scenario
	// runs are the runs the columns read, in the order each point
	// makes them.
	runs []run
}

const maxPoints = 4096 // bounds an axis product, which a short file can make astronomical

// LoadSpec reads and parses one spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(filepath.Base(path), data)
}

// ParseSpec decodes a spec: a scenario file in the YAML subset with
// four keys of its own, whose name defaults to the file's. title: and
// table: are the printed table's title and column names, region: the
// monitored region the bound columns read (see Spec.Region). sweep: lists
// the axes, each a one-key mapping from a name to its values. A point
// is the base document with one value of every axis applied: a scalar
// value replaces the key the axis names, a mapping value each of its
// own keys. A key replaces the scenario field of that name if there is
// one, else the workload's. Every point is then decoded and validated
// like any scenario file.
func ParseSpec(name string, data []byte) (*Spec, error) {
	bad := func(format string, args ...any) (*Spec, error) {
		return nil, fmt.Errorf("%s: "+format, append([]any{name}, args...)...)
	}
	tree, err := parseYAML(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	doc, _ := tree.(map[string]any)
	title, _ := doc["title"].(string)
	cols, _ := doc["table"].([]any)
	axes, _ := doc["sweep"].([]any)
	if title == "" || len(cols) == 0 || len(axes) == 0 {
		return bad("a spec needs a title, table columns and sweep axes")
	}
	region, _ := doc["region"].(string)
	sp := &Spec{Title: title, Region: region}
	for _, c := range cols {
		sp.Columns = append(sp.Columns, fmt.Sprint(c))
	}

	points := []map[string]any{maps.Clone(doc)}
	for _, key := range []string{"title", "table", "region", "sweep"} {
		delete(points[0], key)
	}
	if doc["name"] == nil {
		points[0]["name"] = strings.TrimSuffix(name, filepath.Ext(name))
	}
	for i, ax := range axes {
		axis, _ := ax.(map[string]any)
		if len(axis) != 1 {
			return bad("sweep axis %d is not a one-key mapping from a name to its values", i)
		}
		for key, vals := range axis {
			list, _ := vals.([]any)
			if len(list) == 0 {
				return bad("sweep axis %s has no values", key)
			}
			if len(points)*len(list) > maxPoints {
				return bad("the sweep has over %d points", maxPoints)
			}
			var next []map[string]any
			for _, pt := range points {
				for _, v := range list {
					next = append(next, apply(pt, key, v))
				}
			}
			points = next
		}
	}
	for i, pt := range points {
		b, err := json.Marshal(pt)
		if err != nil {
			return bad("point %d: %w", i, err)
		}
		s, err := decode(fmt.Sprintf("%s point %d", name, i), b)
		if err != nil {
			return nil, err
		}
		if len(s.Assertions) > 0 || s.wantsFT() {
			return bad("a sweep point takes no assertions or crashes")
		}
		if len(sp.Points) > 0 && s.Workload.Kind != sp.Kind() {
			return bad("points mix workload kinds %s and %s", sp.Kind(), s.Workload.Kind)
		}
		sp.Points = append(sp.Points, s)
	}
	kind := sp.Kind()
	var reads [numRuns]bool
	for _, c := range sp.Columns {
		col, ok := columns[kind][c]
		if !ok {
			return bad("the %s kind measures no column %q", kind, c)
		}
		for _, k := range col.reads {
			reads[k] = true
		}
	}
	for k := range numRuns {
		if reads[k] {
			sp.runs = append(sp.runs, k)
		}
	}
	if len(sp.runs) == 0 {
		return bad("no column reads a run")
	}
	if kind == "comb" && sp.baseline() < 0 {
		return bad("a comb sweep needs a zero-work point: the efficiency columns read it")
	}
	return sp, nil
}

// scenarioFields are the top-level keys of a scenario file.
var scenarioFields = func() map[string]bool {
	out := map[string]bool{}
	t := reflect.TypeFor[Scenario]()
	for i := range t.NumField() {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		out[name] = true
	}
	return out
}()

// apply returns doc with one axis value applied (see ParseSpec).
func apply(doc map[string]any, key string, v any) map[string]any {
	doc = maps.Clone(doc)
	set := func(k string, v any) {
		if scenarioFields[k] {
			doc[k] = v
			return
		}
		wl, _ := doc["workload"].(map[string]any)
		if wl = maps.Clone(wl); wl == nil {
			wl = map[string]any{}
		}
		wl[k] = v
		doc["workload"] = wl
	}
	m, ok := v.(map[string]any)
	if !ok {
		m = map[string]any{key: v}
	}
	for k, x := range m {
		set(k, x)
	}
	return doc
}

// Kind is the workload kind every point shares.
func (sp *Spec) Kind() string { return sp.Points[0].Workload.Kind }

// baseline is the index of a comb sweep's zero-work point, whose run
// the efficiency columns read and which prints no row; -1 for any
// other sweep.
func (sp *Spec) baseline() int {
	if sp.Kind() != "comb" {
		return -1
	}
	return slices.IndexFunc(sp.Points, func(p *Scenario) bool { return p.Workload.Work == 0 })
}

// SweepOpts parameterizes a spec's run: Smoke caps reps and iterations
// as Opts.Smoke does, Backend selects the execution substrate, Faults
// (when non-nil) replaces every point's fault plan and Trace (when
// non-nil) traces the last run of the last point, the others running
// untraced.
type SweepOpts struct {
	Smoke   bool
	Backend cluster.Backend
	Faults  *fabric.FaultPlan
	Trace   *trace.Tracer
}

// A run is one way a sweep point executes. A column reads one or two
// runs, or none when it shows the point itself; a point makes each run
// its spec's columns read, once, in this order.
type run uint8

const (
	runBare          run = iota // uninstrumented
	runInstrumented             // instrumented, as the paper's figures measure
	runCharged                  // instrumented and charged the instrumentation's modelled costs (Fig. 20)
	runIprobe                   // instrumented SP with Iprobes in its overlap windows (Figs. 14-18)
	runMGBlocking               // instrumented MG-ARMCI with blocking puts (Fig. 19)
	runMGNonblocking            // instrumented MG-ARMCI with non-blocking puts
	numRuns
)

var runNames = [numRuns]string{"bare", "instrumented", "charged", "iprobe", "mg-blocking", "mg-nonblocking"}

// PointRun is one run of a sweep point.
type PointRun struct {
	Res cluster.Result
	run run
}

// Name names the run: bare, instrumented, charged, iprobe, mg-blocking
// or mg-nonblocking.
func (r *PointRun) Name() string { return runNames[r.run] }

// Measure is what one sweep point's runs observed: Procs is the
// machine size they ran on (below Point.Procs under smoke), Runs are
// the runs in the order they ran, Watch each rank's mean time per
// repetition in the span a micro or comb program times.
type Measure struct {
	Point *Scenario
	Procs int
	Runs  []PointRun
	Watch []time.Duration
}

// Last is the point's last run: for the last point of a traced sweep,
// the traced one.
func (m *Measure) Last() *cluster.Result { return &m.Runs[len(m.Runs)-1].Res }

// result is run k's result; the spec's columns guarantee it was made.
func (m *Measure) result(k run) *cluster.Result {
	for i := range m.Runs {
		if m.Runs[i].run == k {
			return &m.Runs[i].Res
		}
	}
	panic("scenario: no " + runNames[k] + " run")
}

// Check compiles every point under opts without running any, so its
// errors are the spec's configuration errors.
func (sp *Spec) Check(opts SweepOpts) error {
	_, err := sp.compile(opts)
	return err
}

// compile compiles every point, with opts.Faults in place of its own,
// and checks that each point can make every run the columns read.
func (sp *Spec) compile(opts SweepOpts) ([]*compiled, error) {
	cs := make([]*compiled, len(sp.Points))
	for i, p := range sp.Points {
		c, err := p.validate(opts.Smoke)
		if err != nil {
			return nil, err
		}
		if opts.Faults != nil {
			if err := opts.Faults.CheckNodes(c.procs); err != nil {
				return nil, err
			}
			c.faults = opts.Faults
		}
		for _, k := range sp.runs {
			if !c.makes(k) {
				return nil, fmt.Errorf("%s point %d: a %s %s workload makes no %s run, which the columns read",
					p.Name, i, p.Workload.Kind, p.Workload.Bench, runNames[k])
			}
		}
		cs[i] = c
	}
	return cs, nil
}

// makes reports whether c has the program run k executes.
func (c *compiled) makes(k run) bool {
	switch k {
	case runIprobe:
		return c.probed != nil
	case runMGBlocking, runMGNonblocking:
		return c.armci != nil
	}
	return c.program != nil
}

// Run makes every point's runs, point after point. The points share
// one instrument config per instrumentation mode, so the transfer-time
// table is calibrated once per spec — on the real backend, in
// wall-clock time.
func (sp *Spec) Run(opts SweepOpts) ([]Measure, error) {
	cs, err := sp.compile(opts)
	if err != nil {
		return nil, err
	}
	plain, charged := &overlap.Instrument{}, &overlap.Instrument{ModelCost: true}
	ms := make([]Measure, len(cs))
	for i, c := range cs {
		m := &ms[i]
		m.Point, m.Procs, m.Watch = sp.Points[i], c.procs, c.watch
		for j, k := range sp.runs {
			var tr *trace.Tracer
			if i == len(cs)-1 && j == len(sp.runs)-1 {
				tr = opts.Trace
			}
			instr := plain
			switch k {
			case runBare:
				instr = nil
			case runCharged:
				instr = charged
			}
			res, err := c.run(k, opts.Backend, instr, tr)
			if err != nil {
				return nil, fmt.Errorf("%s point %d: %w", sp.Points[i].Name, i, err)
			}
			m.Runs = append(m.Runs, PointRun{Res: res, run: k})
		}
	}
	return ms, nil
}

// run executes c's program for run k, instrumented by instr (nil runs
// it bare) and traced by tr (nil runs it untraced). An MG-ARMCI run's
// result carries the one-sided library's times as MPITimes.
func (c *compiled) run(k run, backend cluster.Backend, instr *overlap.Instrument, tr *trace.Tracer) (cluster.Result, error) {
	if k == runMGBlocking || k == runMGNonblocking {
		v := nas.MGBlocking
		if k == runMGNonblocking {
			v = nas.MGNonblocking
		}
		res, err := cluster.RunARMCI(cluster.ARMCIConfig{Procs: c.procs, Backend: backend,
			ARMCI: armci.Config{Instrument: instr}, Faults: c.faults, Deadline: c.deadline, Trace: tr},
			func(pr *armci.Proc) { c.armci(pr, v) })
		return cluster.Result{Reports: res.Reports, Duration: res.Duration, MPITimes: res.LibTimes,
			Transfers: res.Transfers, FaultStats: res.FaultStats, RelStats: res.RelStats,
			Metrics: res.Metrics, Calib: instr.Table, RankErrors: res.RankErrors}, err
	}
	cfg := cluster.Config{Procs: c.procs, Backend: backend, MPI: c.mpi, Faults: c.faults, Deadline: c.deadline, Trace: tr}
	cfg.MPI.Instrument = instr
	program := c.program
	if k == runIprobe {
		program = c.probed
	}
	return cluster.RunE(cfg, program)
}

// Table renders ms, the measures Run returned, as the spec's table.
func (sp *Spec) Table(ms []Measure) *report.Table {
	t := report.NewTable(sp.Title, sp.Columns...)
	for i := range ms {
		if i == sp.baseline() {
			continue
		}
		row := make([]any, len(sp.Columns))
		for j, col := range sp.Columns {
			row[j] = sp.Value(ms, i, col)
		}
		t.AddRow(row...)
	}
	return t
}

// Value returns point i's cell in column col, as the table prints it.
// col is one of the spec's columns: another may read a run the points
// did not make, and panics.
func (sp *Spec) Value(ms []Measure, i int, col string) any {
	var base *Measure
	if b := sp.baseline(); b >= 0 {
		base = &ms[b]
	}
	return columns[sp.Kind()][col].cell(&ms[i], base, sp.Region)
}

// A column is one printed column: the runs its cell reads (none when
// it shows the point) and the cell, from the point's measure, the
// sweep's COMB baseline and the spec's region.
type column struct {
	reads []run
	cell  func(m, base *Measure, region string) any
}

// point is a column showing the point itself.
func point(cell func(m *Measure) any) column {
	return column{cell: func(m, _ *Measure, _ string) any { return cell(m) }}
}

// of is a column showing run k's result.
func of(k run, cell func(r *cluster.Result) any) column {
	return column{[]run{k}, func(m, _ *Measure, _ string) any { return cell(m.result(k)) }}
}

// bound is a column showing a measure of process 0's transfers in run
// k, over the spec's region or the whole run.
func bound(k run, cell func(t overlap.Measures) any) column {
	return column{[]run{k}, func(m, _ *Measure, region string) any {
		rep := m.result(k).Reports[0]
		if region == "" {
			return cell(rep.Total())
		}
		var t overlap.Measures
		if reg := rep.Region(region); reg != nil {
			t = reg.Total
		}
		return cell(t)
	}}
}

// reads is a column showing what run k left in the point's measure,
// against the sweep's COMB baseline.
func reads(k run, cell func(m, base *Measure) any) column {
	return column{[]run{k}, func(m, base *Measure, _ string) any { return cell(m, base) }}
}

// change is a column showing the change of a time from run a to run
// b, in percent of run a's.
func change(a, b run, t func(r *cluster.Result) time.Duration, cell func(pct float64) any) column {
	return column{[]run{a, b}, func(m, _ *Measure, _ string) any {
		ta, tb := t(m.result(a)), t(m.result(b))
		return cell(100 * (float64(tb) - float64(ta)) / float64(ta))
	}}
}

func minPct(t overlap.Measures) any   { return t.MinPercent() }
func maxPct(t overlap.Measures) any   { return t.MaxPercent() }
func xfers(t overlap.Measures) any    { return t.Count }
func dataXfer(t overlap.Measures) any { return t.DataTransferTime.Round(time.Microsecond) }
func runTime(r *cluster.Result) any   { return r.Duration.Round(time.Microsecond) }
func mpiTime(r *cluster.Result) any   { return r.MPITimes[0].Round(time.Microsecond) }

// columns are the table columns each workload kind measures, by name.
var columns = map[string]map[string]column{
	"micro": {
		"compute":     point(func(m *Measure) any { return m.Point.Workload.Compute.D() }),
		"sender wait": reads(runInstrumented, func(m, _ *Measure) any { return m.Watch[0] }),
		"recv wait":   reads(runInstrumented, func(m, _ *Measure) any { return m.Watch[1] }),
		"s.min%":      of(runInstrumented, func(r *cluster.Result) any { return exchange(r, 0).MinPercent() }),
		"s.max%":      of(runInstrumented, func(r *cluster.Result) any { return exchange(r, 0).MaxPercent() }),
		"r.min%":      of(runInstrumented, func(r *cluster.Result) any { return exchange(r, 1).MinPercent() }),
		"r.max%":      of(runInstrumented, func(r *cluster.Result) any { return exchange(r, 1).MaxPercent() }),
	},
	// COMB times the exchange itself, so it reads the bare run.
	"comb": {
		"work":    point(func(m *Measure) any { return m.Point.Workload.Work.D() }),
		"elapsed": reads(runBare, func(m, _ *Measure) any { return m.Watch[0].Round(time.Microsecond) }),
		"availability": reads(runBare, func(m, _ *Measure) any {
			return fmt.Sprintf("%.2f", comb.Availability(m.Point.Workload.Work.D(), m.Watch[0]))
		}),
		"overlap eff.": reads(runBare, func(m, base *Measure) any {
			return fmt.Sprintf("%.2f", comb.OverlapEfficiency(base.Watch[0], m.Point.Workload.Work.D(), m.Watch[0]))
		}),
	},
	"nas": {
		"benchmark": point(func(m *Measure) any { return strings.ToUpper(m.Point.Workload.Bench) }),
		"class":     point(func(m *Measure) any { return cmp.Or(strings.ToUpper(m.Point.Workload.Class), nas.ClassS.String()) }),
		"procs":     point(func(m *Measure) any { return m.Procs }),
		// Fig. 20: the instrumented column reads the charged run.
		"plain":        of(runBare, runTime),
		"instrumented": of(runCharged, runTime),
		"overhead%": change(runBare, runCharged, func(r *cluster.Result) time.Duration { return r.Duration },
			func(pct float64) any { return fmt.Sprintf("%.3f", pct) }),
		// Figs. 10-13.
		"min%":      bound(runInstrumented, minPct),
		"max%":      bound(runInstrumented, maxPct),
		"xfers":     bound(runInstrumented, xfers),
		"data xfer": bound(runInstrumented, dataXfer),
		"MPI time":  of(runInstrumented, mpiTime),
		"run time":  of(runInstrumented, runTime),
		// Figs. 14-18: SP as written, and with Iprobes.
		"orig min%": bound(runInstrumented, minPct),
		"orig max%": bound(runInstrumented, maxPct),
		"mod min%":  bound(runIprobe, minPct),
		"mod max%":  bound(runIprobe, maxPct),
		"orig":      of(runInstrumented, mpiTime),
		"modified":  of(runIprobe, mpiTime),
		"change%": change(runInstrumented, runIprobe, func(r *cluster.Result) time.Duration { return r.MPITimes[0] },
			func(pct float64) any { return pct }),
		// Fig. 19.
		"blk min%": bound(runMGBlocking, minPct),
		"blk max%": bound(runMGBlocking, maxPct),
		"nb min%":  bound(runMGNonblocking, minPct),
		"nb max%":  bound(runMGNonblocking, maxPct),
	},
}

// exchange returns rank's overlap measures over RegionExchange, zero
// when the rank reported none.
func exchange(r *cluster.Result, rank int) overlap.Measures {
	if rep := r.Reports[rank]; rep != nil {
		if reg := rep.Region(RegionExchange); reg != nil {
			return reg.Total
		}
	}
	return overlap.Measures{}
}
