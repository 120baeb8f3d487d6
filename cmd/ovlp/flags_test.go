package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

func TestCheckFaultNodes(t *testing.T) {
	plan := &fabric.FaultPlan{
		Seed:   1,
		Stalls: []fabric.StallWindow{{Node: 3, Start: 0, End: vtime.Time(1)}},
	}
	// Node 3 exists only on machines with >= 4 nodes; the smallest
	// count in the sweep is what binds.
	if err := checkFaultNodes(plan, []int{8, 4}); err != nil {
		t.Errorf("valid sweep rejected: %v", err)
	}
	if err := checkFaultNodes(plan, []int{8, 2}); err == nil {
		t.Error("sweep including a 2-node run must be rejected")
	}
	if err := checkFaultNodes(nil, []int{1}); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
	if err := checkFaultNodes(plan, nil); err != nil {
		t.Errorf("empty sweep rejected: %v", err)
	}
}

func TestObsDisabled(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := registerObs(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.Enabled() || o.Tracer() != nil {
		t.Error("no flags must mean no tracer")
	}
	if err := o.Finish(os.Stdout); err != nil {
		t.Errorf("Finish on disabled obs: %v", err)
	}
}

func TestObsTraceAndMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := registerObs(fs)
	if err := fs.Parse([]string{"-trace", path, "-metrics"}); err != nil {
		t.Fatal(err)
	}
	tr := o.Tracer()
	if tr == nil {
		t.Fatal("tracer must exist with -trace set")
	}
	if o.Tracer() != tr {
		t.Error("Tracer must be created once")
	}
	tr.Track(trace.GroupHost, 0, "rank0").Instant("c", "e", 0, trace.None)
	tr.Metrics().Counter("runs").Inc()

	var out bytes.Buffer
	if err := o.Finish(&out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file invalid JSON: %v", err)
	}
	if !strings.Contains(out.String(), "runs") {
		t.Errorf("-metrics output missing counter:\n%s", out.String())
	}
}

func TestObsMetricsOnly(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := registerObs(fs)
	if err := fs.Parse([]string{"-metrics"}); err != nil {
		t.Fatal(err)
	}
	tr := o.Tracer()
	tk := tr.Track(trace.GroupHost, 0, "r")
	tk.Instant("c", "e", 0, trace.None)
	if len(tk.Recs()) != 0 {
		t.Error("bare -metrics must run the tracer in metrics-only mode")
	}
	tr.Metrics().Counter("n").Add(3)
	var out bytes.Buffer
	if err := o.Finish(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n") || !strings.Contains(out.String(), "3") {
		t.Errorf("metrics table missing:\n%s", out.String())
	}
}

func TestFTPlan(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := registerFT(fs)
	if err := fs.Parse([]string{"-crash", "2@800us, 0@3ms"}); err != nil {
		t.Fatal(err)
	}
	if !f.Active() {
		t.Fatal("crash plan declared but not Active")
	}
	plan, err := f.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := []fabric.Crash{
		{Node: 2, At: vtime.Time(800 * time.Microsecond)},
		{Node: 0, At: vtime.Time(3 * time.Millisecond)},
	}
	if !reflect.DeepEqual(plan.Crashes, want) {
		t.Errorf("Plan = %+v, want %+v", plan.Crashes, want)
	}
	if err := plan.CheckNodes(4); err != nil {
		t.Errorf("valid machine rejected: %v", err)
	}
	if err := plan.CheckSurvivors(4); err != nil {
		t.Errorf("two survivors of four rejected: %v", err)
	}
	if err := plan.CheckSurvivors(3); err == nil {
		t.Error("node 2 crash on a 3-node run with node 0 also dead must leave < 2 survivors")
	}
	if err := plan.CheckNodes(2); err == nil {
		t.Error("crash naming node 2 on a 2-node machine accepted")
	}
	if !strings.Contains(f.Describe(), "node 2 @ 800µs") {
		t.Errorf("Describe = %q", f.Describe())
	}
}

func TestFTPlanErrors(t *testing.T) {
	for _, bad := range []string{"x", "2", "2@", "@1ms", "2@-1ms", "2@0s", "1@1ms,1@2ms", " , "} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		f := registerFT(fs)
		if err := fs.Parse([]string{"-crash", bad}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Plan(); err == nil {
			t.Errorf("-crash %q accepted", bad)
		}
	}
}

func TestFTOptions(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := registerFT(fs)
	if err := fs.Parse([]string{"-recover", "checkpoint-restart", "-checkpoint-every", "2"}); err != nil {
		t.Fatal(err)
	}
	opt, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Mode != cluster.CheckpointRestart || opt.CheckpointEvery != 2 {
		t.Errorf("Options = %+v", opt)
	}

	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	f = registerFT(fs)
	if err := fs.Parse([]string{"-recover", "retry-harder"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Options(); err == nil {
		t.Error("unknown -recover mode accepted")
	}
}

// TestFTInactive: no -crash means a nil plan and an untouched header.
func TestFTInactive(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := registerFT(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Active() {
		t.Error("Active without -crash")
	}
	if plan, err := f.Plan(); plan != nil || err != nil {
		t.Errorf("Plan = %v, %v", plan, err)
	}
	if f.Describe() != "" {
		t.Errorf("Describe = %q, want empty", f.Describe())
	}
}

// TestFinishOutputsIndependent: -profile, -timeresolved and -diagnose
// share one calibration table and one blame profile per Finish, and
// together write the same bytes as each of them alone. timeline never
// hands Finish a table, so the default-model table is calibrated here.
func TestFinishOutputsIndependent(t *testing.T) {
	outputs := []struct{ flag, file string }{
		{"-profile", "profile.txt"},
		{"-timeresolved", "timeres.csv"},
		{"-diagnose", "findings.json"},
	}
	together := t.TempDir()
	args := []string{"-scenario", "ring-probe"}
	for _, o := range outputs {
		args = append(args, o.flag, filepath.Join(together, o.file))
	}
	if code, _, stderr := runCmd(t, "timeline", args...); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, o := range outputs {
		alone := filepath.Join(t.TempDir(), o.file)
		if code, _, stderr := runCmd(t, "timeline", "-scenario", "ring-probe", o.flag, alone); code != 0 {
			t.Fatalf("%s alone: exit = %d, stderr: %s", o.flag, code, stderr)
		}
		want, err := os.ReadFile(alone)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(together, o.file))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s with the other two flags wrote %d bytes, alone %d; they differ", o.flag, len(got), len(want))
		}
	}
}
