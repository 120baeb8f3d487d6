package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{
		{1, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		v := make([]int64, c.n)
		for i := range v {
			v[i] = int64(c.n - i) // descending: the picker must sort
		}
		pct, val := tailPercentile(v)
		if pct != c.pct {
			t.Errorf("n=%d: picked p%g, want p%g", c.n, pct, c.pct)
		}
		beyond := 0
		for _, x := range v {
			if x > val {
				beyond++
			}
		}
		if c.pct > 50 && beyond < 9 {
			t.Errorf("n=%d: p%g leaves only %d samples beyond it", c.n, pct, beyond)
		}
	}
	if pct, val := tailPercentile(nil); pct != 0 || val != 0 {
		t.Errorf("empty input: got p%g=%d", pct, val)
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100) holds two adjacent children a [10,30) and b [30,60);
	// b holds a nested grandchild c [35,45).
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 35, End: 45, Parent: 2},
	}
	want := []int64{50, 20, 20, 10}
	got := selfTimes(spans)
	var total int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
		total += got[i]
	}
	if total != spans[0].End-spans[0].Start {
		t.Errorf("self times sum to %d, the op span is %d", total, spans[0].End-spans[0].Start)
	}
}

func TestSpanRecorderNesting(t *testing.T) {
	var off *spanRec
	off.end(off.begin("ignored")) // a nil recorder ignores everything

	r := newSpanRec()
	op := r.beginOp("op", 7)
	a := r.begin("a")
	r.end(a)
	b := r.begin("b")
	c := r.begin("c")
	r.end(c)
	r.end(b)
	r.end(op)
	parents := []int{-1, op, op, b}
	for i, s := range r.spans {
		if s.Parent != parents[i] || s.OpID != 7 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d, op 7", i, s, parents[i])
		}
	}
}

func loadTestManifest(t *testing.T) (*manifest, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return man, root
}

// TestManifest holds BENCHMARK.json to the limits the benchmark driver
// states and to the benchmark's own tables.
func TestManifest(t *testing.T) {
	man, _ := loadTestManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	inGo := map[string]bool{}
	for _, wl := range workloads() {
		inGo[wl.name] = true
	}
	for _, wl := range man.Workloads {
		name(wl.Name)
		if !inGo[wl.Name] {
			t.Errorf("workload %s is listed but not implemented", wl.Name)
		}
		delete(inGo, wl.Name)
		if len(wl.Why) == 0 || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", wl.Name, len(wl.Why))
		}
	}
	for n := range inGo {
		t.Errorf("workload %s is implemented but not listed", n)
	}

	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	e2e := map[string]bool{}
	for _, d := range man.EndToEnd {
		name(d.Name)
		e2e[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound == nil || *d.Bound < 0 || *d.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in [0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}

	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	wls := map[string]bool{}
	for _, wl := range man.Workloads {
		wls[wl.Name] = true
	}
	listed := map[string]bool{}
	for _, d := range man.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != nil {
			t.Errorf("per-layer metric %s: unit %q, better %q, bound set: %v", d.Name, d.Unit, d.Better, d.Bound != nil)
		}
		mv := movesOf(d.Name)
		if len(mv) == 0 {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it moves", d.Name)
		}
		for _, m := range mv {
			if !e2e[m.metric] || !wls[m.workload] {
				t.Errorf("per-layer metric %s moves %s on %s: no such metric or workload", d.Name, m.metric, m.workload)
			}
		}
		listed[strings.TrimSuffix(strings.TrimSuffix(d.Name, ".lu"), ".coll")] = true
		listed[d.Name] = true
	}
	for n := range moves {
		if !listed[n] {
			t.Errorf("moves names %s, which BENCHMARK.json does not list", n)
		}
	}
	for _, rg := range ladder() {
		for _, suffix := range []string{".lu", ".coll"} {
			if man.def(true, rg.metric+suffix) == nil {
				t.Errorf("ladder rung %s%s is not listed", rg.metric, suffix)
			}
		}
	}
}

func TestQuartiles(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("quartiles of one = %g %g %g, want 4 4 4", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	tenth, hundredth := 0.1, 0.01
	man := &manifest{
		Workloads: []manifestWL{{Name: "nas_lu"}},
		EndToEnd: []manifestDef{
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: &tenth},
			{Name: "allocs_per_op", Unit: "1", Better: "lower", Bound: &hundredth},
		},
	}
	mk := func(seed int64, opsPerS, allocs float64, events int64) *result {
		return &result{
			Workload: "nas_lu", Seed: seed,
			Metrics: map[string]value{
				"ops_per_s":     {Value: opsPerS, Unit: "1/s"},
				"allocs_per_op": {Value: allocs, Unit: "1"},
			},
			Exact: map[string]int64{"events_per_pass": events},
		}
	}
	dir := t.TempDir()
	write := func(name string, rs ...*result) string {
		p := filepath.Join(dir, name)
		if err := appendResults(p, rs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(1, 100, 1000, 61200))
	for _, c := range []struct {
		name      string
		b         *result
		wantWorse bool
		wantText  string
	}{
		{"same", mk(1, 100, 1000, 61200), false, "ok"},
		{"faster", mk(1, 130, 900, 61200), false, "ok"},
		{"within-bound", mk(1, 95, 1005, 61200), false, "ok"},
		{"slower", mk(1, 85, 1000, 61200), true, "worse"},
		{"more-allocs", mk(1, 100, 1020, 61200), true, "worse"},
		{"exact-differs", mk(1, 100, 1000, 61201), true, "exact count differs"},
		{"other-seed-exact-free", mk(2, 100, 1000, 70000), false, "ok"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, man, base, write(c.name+".json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse || !strings.Contains(out.String(), c.wantText) {
			t.Errorf("%s: worse=%v, want %v with %q in:\n%s", c.name, worse, c.wantWorse, c.wantText, out.String())
		}
	}

	// A reference whose own runs spread wider than the bound cannot
	// certify "unchanged" unless the candidate wins every pairing.
	noisy := write("noisy.json", mk(1, 80, 1000, 61200), mk(1, 100, 1000, 61200), mk(1, 120, 1000, 61200), mk(1, 140, 1000, 61200))
	var out bytes.Buffer
	worse, err := compareFiles(&out, man, noisy, write("mid.json", mk(1, 108, 1000, 61200)))
	if err != nil {
		t.Fatal(err)
	}
	if worse || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy reference: worse=%v, want unresolved in:\n%s", worse, out.String())
	}
	out.Reset()
	if _, err = compareFiles(&out, man, noisy, write("best.json", mk(1, 150, 1000, 61200))); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "unresolved") {
		t.Errorf("a candidate that beats every reference run is resolved:\n%s", out.String())
	}
}

// TestSmoke sets every workload up and runs one pass of operations
// with spans on: the correctness pins hold, the exact counts are
// there, and each operation's child spans plus its self time add up to
// the operation span. Workloads that read the seed run on two seeds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scenario corpus twice")
	}
	_, root := loadTestManifest(t)
	exp := &expected{}
	if err := readJSON(filepath.Join(root, "bench", "expected.json"), exp); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]int64{"scenario_corpus": {1, 2}, "trace_analysis": {1, 2}}
	for _, wl := range workloads() {
		ss := seeds[wl.name]
		if ss == nil {
			ss = []int64{1}
		}
		for _, seed := range ss {
			inst, err := wl.setup(&env{root: root, seed: seed, exp: exp})
			if err != nil {
				t.Fatalf("%s seed %d: %v", wl.name, seed, err)
			}
			rec := newSpanRec()
			w := runOps(inst, 0, 0, rec)
			if w.ops != inst.cycle() || w.failed != 0 || w.checks == 0 {
				t.Errorf("%s seed %d: %d ops (want %d), %d failed (%v), %d checks", wl.name, seed, w.ops, inst.cycle(), w.failed, w.firstErr, w.checks)
			}
			if ev, tf := passSum(inst, inst.events), passSum(inst, inst.transfers); ev == 0 || tf == 0 {
				t.Errorf("%s seed %d: exact counts missing: %d events, %d transfers", wl.name, seed, ev, tf)
			}
			self := selfTimes(rec.spans)
			perOp := map[int]int64{}
			for i, s := range rec.spans {
				perOp[s.OpID] += self[i]
				if self[i] < 0 {
					t.Errorf("%s: span %s has negative self time", wl.name, s.Name)
				}
			}
			for _, s := range rec.spans {
				if s.Parent == -1 && perOp[s.OpID] != s.End-s.Start {
					t.Errorf("%s op %d: self times sum to %d, the op span is %d", wl.name, s.OpID, perOp[s.OpID], s.End-s.Start)
				}
			}
		}
	}
}
