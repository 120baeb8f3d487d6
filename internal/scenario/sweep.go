package scenario

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/comb"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/report"
	"ovlp/internal/trace"
)

// Spec is a sweep file: a scenario document varied along its axes,
// one run per point, and the table the points print as. The paper's
// figures are committed as specs under specs/.
type Spec struct {
	// Title heads the printed table.
	Title string
	// Columns names the printed columns, from those the points'
	// workload kind measures (see columns).
	Columns []string
	// Points are the sweep's scenarios, first axis outermost.
	Points []*Scenario
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
// three keys of its own, whose name defaults to the file's. title: and
// table: are the printed table's title and column names. sweep: lists
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
	sp := &Spec{Title: title}
	for _, c := range cols {
		sp.Columns = append(sp.Columns, fmt.Sprint(c))
	}

	points := []map[string]any{maps.Clone(doc)}
	delete(points[0], "title")
	delete(points[0], "table")
	delete(points[0], "sweep")
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
	for _, c := range sp.Columns {
		if columns[kind][c] == nil {
			return bad("the %s kind measures no column %q", kind, c)
		}
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
// non-nil) traces the last point, the others running untraced.
type SweepOpts struct {
	Smoke   bool
	Backend cluster.Backend
	Faults  *fabric.FaultPlan
	Trace   *trace.Tracer
}

// Measure is what one sweep point's run observed: Res is the run (for
// a nas point, the one charged the instrumentation's modelled costs),
// Plain a nas point's uninstrumented run time, Watch each rank's mean
// time per repetition in the span a micro or comb program times.
type Measure struct {
	Point *Scenario
	Res   cluster.Result
	Plain time.Duration
	Watch []time.Duration
}

// Check compiles every point under opts without running any, so its
// errors are the spec's configuration errors.
func (sp *Spec) Check(opts SweepOpts) error {
	_, err := sp.compile(opts)
	return err
}

// compile compiles every point, with opts.Faults in place of its own.
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
		cs[i] = c
	}
	return cs, nil
}

// Run runs every point in order. The points share one instrument
// config, so the transfer-time table is calibrated once per spec — on
// the real backend, in wall-clock time. A comb point, which times the
// exchange itself, runs uninstrumented; a nas point runs twice, bare
// for Fig. 20's plain column and then charged the instrumentation's
// modelled costs.
func (sp *Spec) Run(opts SweepOpts) ([]Measure, error) {
	cs, err := sp.compile(opts)
	if err != nil {
		return nil, err
	}
	kind := sp.Kind()
	instr := &mpi.InstrumentConfig{ModelCost: kind == "nas"}
	ms := make([]Measure, len(cs))
	for i, c := range cs {
		cfg := cluster.Config{Procs: c.procs, Backend: opts.Backend, MPI: c.mpi, Faults: c.faults, Deadline: c.deadline}
		run := func() (res cluster.Result, err error) {
			if res, err = cluster.RunE(cfg, c.program); err != nil {
				err = fmt.Errorf("%s point %d: %w", sp.Points[i].Name, i, err)
			}
			return res, err
		}
		m := &ms[i]
		m.Point, m.Watch = sp.Points[i], c.watch
		if kind == "nas" {
			plain, err := run()
			if err != nil {
				return nil, err
			}
			m.Plain = plain.Duration
		}
		if kind != "comb" {
			cfg.MPI.Instrument = instr
		}
		if i == len(cs)-1 {
			cfg.Trace = opts.Trace
		}
		if m.Res, err = run(); err != nil {
			return nil, err
		}
	}
	return ms, nil
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
func (sp *Spec) Value(ms []Measure, i int, col string) any {
	var base *Measure
	if b := sp.baseline(); b >= 0 {
		base = &ms[b]
	}
	return columns[sp.Kind()][col](&ms[i], base)
}

// columns are the table columns each workload kind measures, by name.
// A cell reads its point's measure and, for COMB's efficiencies, the
// sweep's zero-work baseline.
var columns = map[string]map[string]func(m, base *Measure) any{
	"micro": {
		"compute":     func(m, _ *Measure) any { return m.Point.Workload.Compute.D() },
		"sender wait": func(m, _ *Measure) any { return m.Watch[0] },
		"recv wait":   func(m, _ *Measure) any { return m.Watch[1] },
		"s.min%":      func(m, _ *Measure) any { return m.exchange(0).MinPercent() },
		"s.max%":      func(m, _ *Measure) any { return m.exchange(0).MaxPercent() },
		"r.min%":      func(m, _ *Measure) any { return m.exchange(1).MinPercent() },
		"r.max%":      func(m, _ *Measure) any { return m.exchange(1).MaxPercent() },
	},
	"comb": {
		"work":    func(m, _ *Measure) any { return m.Point.Workload.Work.D() },
		"elapsed": func(m, _ *Measure) any { return m.Watch[0].Round(time.Microsecond) },
		"availability": func(m, _ *Measure) any {
			return fmt.Sprintf("%.2f", comb.Availability(m.Point.Workload.Work.D(), m.Watch[0]))
		},
		"overlap eff.": func(m, base *Measure) any {
			return fmt.Sprintf("%.2f", comb.OverlapEfficiency(base.Watch[0], m.Point.Workload.Work.D(), m.Watch[0]))
		},
	},
	"nas": {
		"benchmark":    func(m, _ *Measure) any { return strings.ToUpper(m.Point.Workload.Bench) },
		"plain":        func(m, _ *Measure) any { return m.Plain.Round(time.Microsecond) },
		"instrumented": func(m, _ *Measure) any { return m.Res.Duration.Round(time.Microsecond) },
		"overhead%": func(m, _ *Measure) any {
			return fmt.Sprintf("%.3f", 100*(float64(m.Res.Duration)-float64(m.Plain))/float64(m.Plain))
		},
	},
}

// exchange returns rank's overlap measures over RegionExchange, zero
// when the rank reported none.
func (m *Measure) exchange(rank int) overlap.Measures {
	if rep := m.Res.Reports[rank]; rep != nil {
		if reg := rep.Region(RegionExchange); reg != nil {
			return reg.Total
		}
	}
	return overlap.Measures{}
}
