package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ovlp/internal/trace"
)

// TestReadTraceRejectsCorruptInput: malformed or truncated input must
// surface a clear error (main turns it into a non-zero exit), never a
// silently empty merge.
func TestReadTraceRejectsCorruptInput(t *testing.T) {
	valid := `{"traceEvents":[{"name":"x","cat":"mpi","ph":"X","ts":1,"dur":2,"pid":1,"tid":1}],"metrics":{}}`
	cases := []struct {
		name, content string
	}{
		{"garbage", "not json at all"},
		{"truncated", valid[:len(valid)/2]},
		{"empty-file", ""},
		{"no-trace-events", `{}`},
		{"wrong-document", `{"metrics":{}}`},
		{"events-not-array", `{"traceEvents":42}`},
	}
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".json")
			if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := readTrace(path)
			if err == nil {
				t.Fatalf("corrupt input accepted: %+v", f)
			}
			if !strings.Contains(err.Error(), "trace-event") {
				t.Errorf("error %q does not say what was wrong with the file", err)
			}
		})
	}
}

// TestReadTraceAcceptsValidInput: the fixed inputs still load,
// including an empty-but-present traceEvents array.
func TestReadTraceAcceptsValidInput(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"one-event": `{"traceEvents":[{"name":"x","cat":"mpi","ph":"X","ts":1,"dur":2,"pid":1,"tid":1}]}`,
		"empty":     `{"traceEvents":[]}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := readTrace(path)
		if err != nil {
			t.Errorf("%s: valid input rejected: %v", name, err)
			continue
		}
		if name == "one-event" && len(f.Events) != 1 {
			t.Errorf("%s: want 1 event, got %d", name, len(f.Events))
		}
	}
}

// TestWarnSpills: a metrics block carrying spill counters surfaces a
// per-track warning plus a total; a spill-free block stays silent.
func TestWarnSpills(t *testing.T) {
	var buf bytes.Buffer
	warnSpills(&buf, &trace.Snapshot{Counters: []trace.CounterSnap{
		{Name: "mpi.calls", Value: 12},
		{Name: "trace.spills", Value: 3},
		{Name: "trace.spills.hosts.rank1", Value: 2},
		{Name: "trace.spills.nic.nic0", Value: 1},
	}})
	out := buf.String()
	for _, want := range []string{
		"track hosts.rank1 spilled its hot ring 2 time(s)",
		"track nic.nic0 spilled its hot ring 1 time(s)",
		"3 ring spill(s) total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("warning output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	warnSpills(&buf, &trace.Snapshot{Counters: []trace.CounterSnap{{Name: "mpi.calls", Value: 12}}})
	if buf.Len() != 0 {
		t.Errorf("spill-free metrics produced warnings: %s", buf.String())
	}
	warnSpills(&buf, nil)
	if buf.Len() != 0 {
		t.Error("nil metrics produced warnings")
	}
}

// TestMergeFilterWriteBytes pins the merged document byte for byte: two
// exporter-written files (names that need escaping, spans and instants,
// args, metrics), the second filtered to its spans, pids offset, metrics
// summed. The bytes were produced by the Fprintf encoder this file used
// before it shared trace.AppendQuote.
func TestMergeFilterWriteBytes(t *testing.T) {
	dir := t.TempDir()
	var files []*traceFile
	for i, name := range []string{"a", "b"} {
		tr := trace.New(trace.Options{})
		tk := tr.Track(trace.GroupHost, i, `rank "`+name+`" <0>`)
		tk.Span("mpi", "Isend", 1500, 4000, trace.Args{Peer: 1, Size: 4096, ID: 7, Detail: "tab\there"})
		tk.Instant("overlap", "xfer-begin", 2000, trace.Args{Peer: trace.NoPeer, ID: 7})
		tk.Instant("c&d", `a<"b">\`, 2500, trace.None)
		tr.Track(trace.GroupNIC, i, "nic").Span("wire", "xfer", 2000, 3000, trace.Args{Peer: 1, Phase: "eager"})
		tr.Metrics().Counter("fabric.transfers").Add(int64(i + 1))
		tr.Metrics().Gauge("depth").Set(int64(3 - i))
		path := filepath.Join(dir, name+".json")
		w, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteChrome(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := readTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			f.apply(filter{minDur: 2 * time.Microsecond})
		}
		files = append(files, f)
	}
	out, err := os.Create(filepath.Join(dir, "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := merge(files).write(out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != mergedWant {
		t.Errorf("merged document changed:\n%s\nwant:\n%s", got, mergedWant)
	}
}

// TestFilterMergedKeepsMetadata: filtering a file tracecat itself merged
// keeps the track names of every input, not only the first one's. The
// merge writes each input's metadata rows ahead of its events, so the
// later inputs' rows sit in the middle of the file, where apply used to
// stop looking.
func TestFilterMergedKeepsMetadata(t *testing.T) {
	dir := t.TempDir()
	tr := trace.New(trace.Options{})
	for id := 0; id < 2; id++ {
		tr.Track(trace.GroupHost, id, "rank").Span("mpi", "Wait", 1000, 2000, trace.None)
		tr.Track(trace.GroupNIC, id, "nic").Span("wire", "xfer", 1000, 2000, trace.Args{Peer: 1 - id, ID: 1})
	}
	a := filepath.Join(dir, "a.json")
	if err := os.WriteFile(a, tr.AppendChrome(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	var inputs []*traceFile
	for i := 0; i < 2; i++ {
		f, err := readTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, f)
	}
	out, err := os.Create(filepath.Join(dir, "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := merge(inputs).write(out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := readTrace(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	f.apply(filter{cats: map[string]bool{"wire": true}})
	var got []string
	for _, e := range f.Events {
		row := e.Name
		if e.Ph == "M" {
			row += "=" + e.MetaName()
		}
		got = append(got, fmt.Sprintf("%s pid%d tid%d", row, e.Pid, e.Tid))
	}
	want := []string{
		"process_name=nic pid2 tid0", "process_sort_index= pid2 tid0",
		"thread_name=nic pid2 tid1", "thread_sort_index= pid2 tid1",
		"thread_name=nic pid2 tid2", "thread_sort_index= pid2 tid2",
		"xfer pid2 tid1", "xfer pid2 tid2",
		"process_name=nic pid5 tid0", "process_sort_index= pid5 tid0",
		"thread_name=nic pid5 tid1", "thread_sort_index= pid5 tid1",
		"thread_name=nic pid5 tid2", "thread_sort_index= pid5 tid2",
		"xfer pid5 tid1", "xfer pid5 tid2",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("filtered merge holds\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

const mergedWant = `{"displayTimeUnit":"ns","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"hosts"}},
{"name":"process_sort_index","ph":"M","pid":1,"tid":0,"args":{"sort_index":1}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"rank \"a\" \u003c0\u003e"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":1,"args":{"sort_index":0}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"nic"}},
{"name":"process_sort_index","ph":"M","pid":2,"tid":0,"args":{"sort_index":2}},
{"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"nic"}},
{"name":"thread_sort_index","ph":"M","pid":2,"tid":1,"args":{"sort_index":0}},
{"name":"Isend","cat":"mpi","ph":"X","ts":1.500,"dur":2.500,"pid":1,"tid":1,"args":{"peer":1,"size":4096,"id":7,"detail":"tab\there"}},
{"name":"xfer-begin","cat":"overlap","ph":"i","s":"t","ts":2.000,"pid":1,"tid":1,"args":{"id":7}},
{"name":"a\u003c\"b\"\u003e\\","cat":"c\u0026d","ph":"i","s":"t","ts":2.500,"pid":1,"tid":1},
{"name":"xfer","cat":"wire","ph":"X","ts":2.000,"dur":1.000,"pid":2,"tid":1,"args":{"peer":1,"phase":"eager"}},
{"name":"process_name","ph":"M","pid":4,"tid":0,"args":{"name":"hosts"}},
{"name":"process_sort_index","ph":"M","pid":4,"tid":0,"args":{"sort_index":1}},
{"name":"thread_name","ph":"M","pid":4,"tid":2,"args":{"name":"rank \"b\" \u003c0\u003e"}},
{"name":"thread_sort_index","ph":"M","pid":4,"tid":2,"args":{"sort_index":1}},
{"name":"Isend","cat":"mpi","ph":"X","ts":1.500,"dur":2.500,"pid":4,"tid":2,"args":{"peer":1,"size":4096,"id":7,"detail":"tab\there"}}
],"metrics":{"counters":[{"name":"fabric.transfers","value":3}],"gauges":[{"name":"depth","value":2,"max":3}],"histograms":[]}}
`
