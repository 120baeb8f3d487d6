package main

import (
	"fmt"
	"io"
	"sort"
)

// manifest is BENCHMARK.json. It is the one place metric names, units,
// directions and bounds are written down: the run takes each metric's
// unit from it and refuses to report a metric it does not list, and
// -compare takes the bounds from it.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWL  `json:"workloads"`
	EndToEnd   []manifestDef `json:"end_to_end"`
	PerLayer   []manifestDef `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	m := &manifest{}
	if err := readJSON(path, m); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *manifest) def(traced bool, name string) *manifestDef {
	defs := m.EndToEnd
	if traced {
		defs = m.PerLayer
	}
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note carries what a reader needs beside the number: a sample
	// count, the percentile picked, "exact".
	Note string `json:"note,omitempty"`
}

// result is one workload's run: the untraced run carries every
// end-to-end metric, the traced run every per-layer metric.
type result struct {
	Workload     string           `json:"workload"`
	Seed         int64            `json:"seed"`
	Seconds      float64          `json:"seconds"`
	Traced       bool             `json:"traced"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	FirstFailure string           `json:"first_failure,omitempty"`
	Metrics      map[string]value `json:"metrics"`
	// Exact holds simulated counts that must repeat bit for bit
	// between runs of one seed: -compare requires them equal.
	Exact map[string]int64 `json:"exact"`
	// SpanSelfMS is, per span name, the self time per operation of the
	// traced run's workload window: where an operation's host time goes.
	SpanSelfMS map[string]float64 `json:"span_self_ms,omitempty"`

	man *manifest
}

func newResult(wl string, e *env, seconds float64, traced bool, man *manifest) *result {
	return &result{
		Workload: wl, Seed: e.seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]value{}, Exact: map[string]int64{}, man: man,
	}
}

// set records a metric under the unit BENCHMARK.json gives it.
func (r *result) set(name string, v float64, note string) {
	d := r.man.def(r.Traced, name)
	if d == nil {
		panic(fmt.Sprintf("bench: metric %q is not listed in BENCHMARK.json", name))
	}
	r.Metrics[name] = value{Value: v, Unit: d.Unit, Note: note}
}

func (r *result) addWindow(w window) {
	r.Attempted += w.ops
	r.Failed += w.failed
	if r.FirstFailure == "" && w.firstErr != nil {
		r.FirstFailure = w.firstErr.Error()
	}
}

// complete reports an error naming any metric BENCHMARK.json lists for
// this kind of run that the run did not produce.
func (r *result) complete() error {
	defs := r.man.EndToEnd
	if r.Traced {
		defs = r.man.PerLayer
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return fmt.Errorf("%s: metric %s listed in BENCHMARK.json was not measured", r.Workload, d.Name)
		}
	}
	return nil
}

func (r *result) print(w io.Writer) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  attempted %d  failed %d  fail_ratio %g\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	if r.FirstFailure != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.FirstFailure)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "   %-34s %16.6g %-6s %s %s\n", n, v.Value, v.Unit, v.Note, movesText(n))
	}
	names = names[:0]
	for n := range r.SpanSelfMS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   self time  %-38s %12.4f ms/op\n", n, r.SpanSelfMS[n])
	}
	names = names[:0]
	for n := range r.Exact {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-34s %16d %-6s exact\n", n, r.Exact[n], "1")
	}
}

// contractLine is the object the benchmark driver reads from the last
// line of standard output.
func (r *result) contractLine() map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for n, v := range r.Metrics {
		metrics[n] = mv{v.Value, v.Unit}
	}
	return map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// runUntraced measures one workload's end-to-end metrics: set-up,
// warm-up, one timed window, nothing recording.
func runUntraced(wl workload, e *env, seconds float64, man *manifest) (*result, error) {
	r := newResult(wl.name, e, seconds, false, man)
	inst, setups, err := setUp(wl, e)
	if err != nil {
		return nil, err
	}
	next, err := warmUp(inst)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	w := runOps(inst, next, seconds, nil)
	r.addWindow(w)

	ops := float64(w.ops)
	n := fmt.Sprintf("n=%d", w.ops)
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d", len(setups)))
	opsPerS, eventsPerS, slices := w.rates(inst.cycle())
	perSlice := fmt.Sprintf("%s, median of %d slices", n, slices)
	r.set("ops_per_s", opsPerS, perSlice)
	// A pass is the unit that repeats: where it holds several
	// configurations of very different cost (coll_sweep), the median
	// over single operations would sit on the gap between two of them.
	passes := passMeans(w.opNS, inst.cycle())
	r.set("op_ms_p50", median(passes)/1e6, fmt.Sprintf("median over %d passes of %d ops", len(passes), inst.cycle()))
	r.set("sim_events_per_s", eventsPerS, perSlice)
	r.set("allocs_per_op", float64(w.mallocs)/ops, n)
	r.set("bytes_per_op", float64(w.bytes)/ops, n)
	r.set("checks_per_op", float64(w.checks)/ops, n)
	r.Exact["events_per_pass"] = passSum(inst, inst.events)
	r.Exact["transfers_per_pass"] = passSum(inst, inst.transfers)
	return r, r.complete()
}

// passMeans returns the mean operation time of each pass of cycle
// consecutive operations.
func passMeans(opNS []int64, cycle int) []float64 {
	out := make([]float64, 0, len(opNS)/cycle)
	for i := 0; i+cycle <= len(opNS); i += cycle {
		var sum int64
		for _, ns := range opNS[i : i+cycle] {
			sum += ns
		}
		out = append(out, float64(sum)/float64(cycle))
	}
	return out
}

// passSum adds an exact per-operation count over one pass.
func passSum(inst instance, f func(int) int64) int64 {
	var s int64
	for i := 0; i < inst.cycle(); i++ {
		s += f(i)
	}
	return s
}
