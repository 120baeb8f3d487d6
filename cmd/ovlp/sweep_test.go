package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ovlp/internal/overlap"
)

// nasSpec writes a spec of one nas point into a temporary directory
// and returns its path.
func nasSpec(t *testing.T, procs, workload, table string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.yaml")
	body := "name: x\nprocs: " + procs + "\nworkload: " + workload + "\ntitle: t\ntable: " + table + "\nsweep:\n  - procs: [" + procs + "]\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSweepBadFlagsExitTwo: a bad flag, spec or fault plan exits 2 with
// a message on stderr, before any simulation starts.
func TestSweepBadFlagsExitTwo(t *testing.T) {
	const bounds = "[class, min%]"
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"bad-flag", []string{"-nope", spec("fig3")}, "-nope"},
		{"no-spec", nil, "spec file"},
		{"missing-spec", []string{"no-such.yaml"}, "no-such.yaml"},
		{"fault-node-range", []string{"-stall", "5@1ms+2ms", spec("fig3")}, "names node 5"},
		{"bad-class", []string{nasSpec(t, "4", "{kind: nas, bench: LU, class: Z}", bounds)}, "LU has no class Z"},
		{"sp-bad-class", []string{nasSpec(t, "4", "{kind: nas, bench: SP, class: Z}", bounds)}, "SP has no class Z"},
		{"malformed-class", []string{nasSpec(t, "4", "{kind: nas, bench: LU, class: SS}", bounds)}, `unknown nas class "SS"`},
		{"bad-bench", []string{nasSpec(t, "4", "{kind: nas, bench: QQ}", bounds)}, `unknown benchmark "QQ"`},
		{"malformed-procs", []string{nasSpec(t, "4, x", "{kind: nas, bench: LU}", bounds)}, "Scenario.procs"},
		{"cg-on-3-procs", []string{nasSpec(t, "3", "{kind: nas, bench: CG}", bounds)}, "power-of-two"},
		{"sp-on-non-square-procs", []string{nasSpec(t, "3", "{kind: nas, bench: SP}", bounds)}, "square grid"},
		{"unknown-column", []string{nasSpec(t, "4", "{kind: nas, bench: LU}", "[nope]")}, `no column "nope"`},
		{"no-run-read", []string{nasSpec(t, "4", "{kind: nas, bench: LU}", "[class, procs]")}, "no column reads a run"},
		{"iprobe-off-sp", []string{nasSpec(t, "4", "{kind: nas, bench: LU}", "[mod min%]")}, "makes no iprobe run"},
		{"armci-on-mpi", []string{nasSpec(t, "4", "{kind: nas, bench: LU}", "[blk min%]")}, "makes no mg-blocking run"},
		{"mpi-on-armci", []string{nasSpec(t, "4", "{kind: nas, bench: MG-ARMCI}", bounds)}, "makes no instrumented run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(t, "sweep", c.args...)
			if code != 2 || stdout != "" {
				t.Fatalf("exit = %d, stdout %q, want 2 and nothing (stderr: %s)", code, stdout, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr = %q, want substring %q", stderr, c.want)
			}
		})
	}
}

// TestSingleFigureWithDiagnose: a smoke-size figure succeeds and
// -diagnose prints the findings block for its last point, the one the
// sweep traced.
func TestSingleFigureWithDiagnose(t *testing.T) {
	code, stdout, stderr := runCmd(t, "sweep", "-smoke", "-diagnose", "-", spec("fig3"))
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Figure 3") || !strings.Contains(stdout, "findings") {
		t.Fatalf("no table or no findings block in output:\n%s", stdout)
	}
}

// TestQuickBenchRuns: a one-point NAS spec exits 0 and prints its
// table, one row and a blank line.
func TestQuickBenchRuns(t *testing.T) {
	code, stdout, stderr := runCmd(t, "sweep", nasSpec(t, "2", "{kind: nas, bench: EP, iters: 1}", "[class, procs, min%, run time]"))
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if lines := strings.Split(stdout, "\n"); len(lines) != 6 || lines[0] != "t" || !strings.HasPrefix(lines[3], "  S      2") {
		t.Fatalf("want the title, a header, one row and a blank line:\n%s", stdout)
	}
}

// TestBackendFlagReachesTheRun: -backend real must select the kernel
// the benchmark runs on, not just parse — the trace and every saved
// report say which clock stamped them, for an MPI benchmark and for
// the one-sided MG.
func TestBackendFlagReachesTheRun(t *testing.T) {
	for _, c := range []struct{ workload, table, report string }{
		{"{kind: nas, bench: CG, iters: 1}", "[min%]", "x-0-instrumented-rank1.json"},
		{"{kind: nas, bench: MG-ARMCI, iters: 1}", "[nb min%]", "x-0-mg-nonblocking-rank1.json"},
	} {
		dir := t.TempDir()
		code, _, stderr := runCmd(t, "sweep", "-backend", "real", "-json", dir, "-trace", filepath.Join(dir, "trace.json"),
			nasSpec(t, "2", c.workload, c.table))
		if code != 0 {
			t.Fatalf("%s: exit = %d, stderr: %s", c.workload, code, stderr)
		}
		trace, err := os.ReadFile(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(trace, []byte(`"clockDomain":"real"`)) {
			t.Errorf("%s: -backend real exported a trace with no real clock domain", c.workload)
		}
		rep, err := overlap.LoadJSON(filepath.Join(dir, c.report))
		if err != nil {
			t.Fatal(err)
		}
		if rep.ClockDomain != "real" {
			t.Errorf("%s: report ClockDomain = %q, want real", c.workload, rep.ClockDomain)
		}
	}
}
