package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ovlp/internal/report"
	"ovlp/internal/trace"
)

// tracecatMain merges, filters and summarizes the Chrome trace-event
// JSON files the benchmarks write with -trace. Merging offsets each
// file's process ids so two runs land side by side in one Perfetto
// view; filtering cuts a big trace down to the categories, names or
// span lengths of interest; -summary prints per-category event counts
// and durations plus the embedded metrics without opening a UI at all.
//
//	ovlp tracecat [-o merged.json] [-cat mpi,overlap] [-name Wait] \
//	              [-min-dur 10us] [-summary] trace.json...
//
// Filters compose: an event survives if its category is in -cat (when
// set), its name contains -name (when set), and — for spans — its
// duration is at least -min-dur. Metadata events for surviving tracks
// are always kept. With -min-dur set, instants are dropped (they have
// no duration to clear the bar).
func tracecatMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("tracecat", stderr)
	out := fs.String("o", "", "write the merged/filtered trace to this file (default stdout unless -summary)")
	cats := fs.String("cat", "", "keep only these comma-separated categories (e.g. mpi,overlap,wire)")
	name := fs.String("name", "", "keep only events whose name contains this substring")
	minDur := fs.Duration("min-dur", 0, "keep only spans at least this long (drops instants)")
	summary := fs.Bool("summary", false, "print per-category counts/durations and the embedded metrics")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail := failWith(stderr, "tracecat", 1)
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "tracecat: no input files (want: tracecat [flags] trace.json...)")
		return 2
	}

	keep := filter{name: *name, minDur: *minDur}
	if *cats != "" {
		keep.cats = make(map[string]bool)
		for _, c := range strings.Split(*cats, ",") {
			keep.cats[strings.TrimSpace(c)] = true
		}
	}

	var files []*traceFile
	for _, path := range fs.Args() {
		f, err := readTrace(path)
		if err != nil {
			return fail(fmt.Errorf("%s: %v", path, err))
		}
		f.apply(keep)
		files = append(files, f)
	}
	merged := merge(files)

	if *summary {
		for _, f := range files {
			if err := f.summarize(stdout); err != nil {
				return fail(err)
			}
		}
	}
	if *out != "" {
		if err := createWith(*out, merged.write); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d events from %d file(s))\n", *out, len(merged.Events), len(files))
	} else if !*summary {
		if err := merged.write(stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}

type traceFile struct {
	Path    string
	Events  []trace.ChromeEvent
	Metrics *trace.Snapshot
}

func readTrace(path string) (*traceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// The events keep slices of data (stamps and args pass through as
	// written), so it lives as long as the file does.
	f := &traceFile{Path: path}
	doc, err := trace.ScanChrome(data, func(e *trace.ChromeEvent) error {
		f.Events = append(f.Events, *e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("not a trace-event file: %v", err)
	}
	// A truncated or unrelated JSON document scans cleanly into
	// nothing; treat the absence of the traceEvents array as the error
	// it is rather than emitting a silently empty merge.
	if !doc.HasEvents {
		return nil, fmt.Errorf("not a trace-event file: no traceEvents array")
	}
	if len(doc.Metrics) > 0 {
		f.Metrics = &trace.Snapshot{}
		if err := json.Unmarshal(doc.Metrics, f.Metrics); err != nil {
			return nil, fmt.Errorf("bad metrics block: %v", err)
		}
	}
	return f, nil
}

type filter struct {
	cats   map[string]bool
	name   string
	minDur time.Duration
}

func (fl filter) empty() bool {
	return fl.cats == nil && fl.name == "" && fl.minDur == 0
}

// keeps decides one non-metadata event's fate.
func (fl filter) keeps(e *trace.ChromeEvent) bool {
	if fl.cats != nil && !fl.cats[e.Cat] {
		return false
	}
	if fl.name != "" && !strings.Contains(e.Name, fl.name) {
		return false
	}
	if fl.minDur > 0 {
		if e.Ph != "X" {
			return false
		}
		if trace.ParseUsec(string(e.Dur)) < int64(fl.minDur) {
			return false
		}
	}
	return true
}

// apply filters the file's events in place, keeping metadata ("M") rows
// only for tracks that still have at least one surviving event. The
// rows are looked for everywhere, not just at the head of the file:
// tracecat's own merges carry each input's metadata before its events.
func (f *traceFile) apply(fl filter) {
	if fl.empty() {
		return
	}
	type track struct{ pid, tid int }
	aliveTracks := make(map[track]bool)
	alivePids := make(map[int]bool)
	for i := range f.Events {
		if e := &f.Events[i]; e.Ph != "M" && fl.keeps(e) {
			aliveTracks[track{e.Pid, e.Tid}] = true
			alivePids[e.Pid] = true
		}
	}
	kept := f.Events[:0]
	for i := range f.Events {
		e := &f.Events[i]
		ok := false
		switch {
		case e.Ph != "M":
			ok = fl.keeps(e)
		case e.Name == "process_name" || e.Name == "process_sort_index":
			// process-level metadata has tid 0; keep it if any of the
			// process's tracks survived.
			ok = alivePids[e.Pid]
		default:
			ok = aliveTracks[track{e.Pid, e.Tid}]
		}
		if ok {
			kept = append(kept, *e)
		}
	}
	f.Events = kept
}

// merged is the output document: events from every file with per-file
// pid offsets, plus the summed metrics.
type merged struct {
	Events  []trace.ChromeEvent
	Metrics *trace.Snapshot
}

// merge concatenates the files in argument order. Each file's process
// ids are offset past the previous files' so same-numbered ranks from
// different runs stay distinct tracks; metrics counters sum, gauges
// keep the maximum, and histograms with matching bounds add up.
func merge(files []*traceFile) *merged {
	m := &merged{}
	offset := 0
	for _, f := range files {
		maxPid := 0
		for _, e := range f.Events {
			e.Pid += offset
			if e.Pid > maxPid {
				maxPid = e.Pid
			}
			m.Events = append(m.Events, e)
		}
		if maxPid >= offset {
			offset = maxPid + 1
		}
		m.Metrics = mergeMetrics(m.Metrics, f.Metrics)
	}
	return m
}

func mergeMetrics(a, b *trace.Snapshot) *trace.Snapshot {
	if b == nil {
		return a
	}
	if a == nil {
		return b
	}
	out := &trace.Snapshot{}
	cs := make(map[string]int64)
	for _, c := range append(append([]trace.CounterSnap{}, a.Counters...), b.Counters...) {
		cs[c.Name] += c.Value
	}
	for _, name := range sortedKeys(cs) {
		out.Counters = append(out.Counters, trace.CounterSnap{Name: name, Value: cs[name]})
	}
	gs := make(map[string]trace.GaugeSnap)
	for _, g := range append(append([]trace.GaugeSnap{}, a.Gauges...), b.Gauges...) {
		cur, ok := gs[g.Name]
		if !ok || g.Max > cur.Max {
			cur.Max = g.Max
		}
		cur.Name, cur.Value = g.Name, g.Value // last writer wins on level
		gs[g.Name] = cur
	}
	for _, name := range sortedKeys(gs) {
		out.Gauges = append(out.Gauges, gs[name])
	}
	hs := make(map[string]trace.HistogramSnap)
	for _, h := range append(append([]trace.HistogramSnap{}, a.Histograms...), b.Histograms...) {
		cur, ok := hs[h.Name]
		if !ok {
			hs[h.Name] = h
			continue
		}
		if !slices.Equal(cur.Bounds, h.Bounds) {
			continue // incompatible shapes: keep the first
		}
		for i := range cur.Buckets {
			cur.Buckets[i] += h.Buckets[i]
		}
		cur.Sum += h.Sum
		if h.Count > 0 && (cur.Count == 0 || h.Min < cur.Min) {
			cur.Min = h.Min
		}
		if h.Count > 0 && (cur.Count == 0 || h.Max > cur.Max) {
			cur.Max = h.Max
		}
		cur.Count += h.Count
		hs[h.Name] = cur
	}
	for _, name := range sortedKeys(hs) {
		out.Histograms = append(out.Histograms, hs[name])
	}
	return out
}

// write re-encodes the merged document with the exporter's fixed field
// order, so tracecat output is deterministic too.
func (m *merged) write(w io.Writer) error {
	b := []byte(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, e := range m.Events {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n{\"name\":"...)
		b = trace.AppendQuote(b, e.Name)
		if e.Cat != "" {
			b = append(b, `,"cat":`...)
			b = trace.AppendQuote(b, e.Cat)
		}
		b = append(b, `,"ph":`...)
		b = trace.AppendQuote(b, e.Ph)
		if e.S != "" {
			b = append(b, `,"s":`...)
			b = trace.AppendQuote(b, e.S)
		}
		if len(e.Ts) > 0 {
			b = append(b, `,"ts":`...)
			b = append(b, e.Ts...)
		}
		if len(e.Dur) > 0 {
			b = append(b, `,"dur":`...)
			b = append(b, e.Dur...)
		}
		b = append(b, `,"pid":`...)
		b = strconv.AppendInt(b, int64(e.Pid), 10)
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(e.Tid), 10)
		if len(e.Args) > 0 {
			b = append(b, `,"args":`...)
			b = append(b, e.Args...)
		}
		b = append(b, '}')
	}
	b = append(b, "\n]"...)
	if _, err := w.Write(b); err != nil {
		return err
	}
	if m.Metrics != nil && !m.Metrics.Empty() {
		if _, err := io.WriteString(w, `,"metrics":`); err != nil {
			return err
		}
		if err := m.Metrics.WriteJSON(w); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// summarize prints one file's shape: track and event counts, the time
// span covered, a per-category/name table, and the metrics block.
func (f *traceFile) summarize(w io.Writer) error {
	type key struct{ cat, name string }
	type stat struct {
		count int
		total int64 // summed span durations, ns
	}
	stats := make(map[key]stat)
	tracks := make(map[[2]int]bool)
	var spans, instants int
	var end int64
	for _, e := range f.Events {
		switch e.Ph {
		case "M":
			continue
		case "X":
			spans++
		case "i":
			instants++
		}
		tracks[[2]int{e.Pid, e.Tid}] = true
		s := stats[key{e.Cat, e.Name}]
		s.count++
		at := trace.ParseUsec(string(e.Ts))
		if e.Ph == "X" {
			d := trace.ParseUsec(string(e.Dur))
			s.total += d
			at += d
		}
		if at > end {
			end = at
		}
		stats[key{e.Cat, e.Name}] = s
	}

	fmt.Fprintf(w, "%s: %d track(s), %d span(s), %d instant(s), %v covered\n",
		f.Path, len(tracks), spans, instants, time.Duration(end))
	keys := make([]key, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cat != keys[j].cat {
			return keys[i].cat < keys[j].cat
		}
		return keys[i].name < keys[j].name
	})
	t := report.NewTable("  events by category", "cat", "name", "count", "total dur")
	for _, k := range keys {
		s := stats[k]
		t.AddRow(k.cat, k.name, s.count, time.Duration(s.total).Round(time.Microsecond))
	}
	t.Render(w)
	warnSpills(w, f.Metrics)
	if f.Metrics != nil && !f.Metrics.Empty() {
		fmt.Fprintln(w, "metrics:")
		if err := f.Metrics.WriteText(w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return nil
}

// warnSpills surfaces per-track ring-buffer spills recorded in the
// embedded metrics block: a spilled track allocated during
// steady-state emission, which biases any overhead-sensitive
// post-hoc analysis of the trace.
func warnSpills(w io.Writer, m *trace.Snapshot) {
	if m == nil {
		return
	}
	var total int64
	for _, c := range m.Counters {
		switch {
		case c.Name == "trace.spills":
			total = c.Value
		case strings.HasPrefix(c.Name, "trace.spills."):
			fmt.Fprintf(w, "  WARNING: track %s spilled its hot ring %d time(s) — emission allocated; consider a larger ring\n",
				strings.TrimPrefix(c.Name, "trace.spills."), c.Value)
		}
	}
	if total > 0 {
		fmt.Fprintf(w, "  WARNING: %d ring spill(s) total across tracks\n", total)
	}
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
