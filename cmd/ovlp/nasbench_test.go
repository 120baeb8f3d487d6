package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ovlp/internal/overlap"
)

// TestNasbenchBadFlagsExitTwo: sweep and fault validation failures exit 2
// before any simulation starts.
func TestNasbenchBadFlagsExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"bad-flag", []string{"-nope"}, "-nope"},
		{"malformed-procs", []string{"-procs", "4,x"}, "bad processor count"},
		{"bad-class", []string{"-classes", "SS"}, "bad class"},
		{"scenario-and-legacy", []string{"-scenario", "x.yaml", "-drop", "0.1"}, "mutually exclusive"},
		{"trace-needs-single", []string{"-trace", "out.json"}, "single run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, "nasbench", c.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr = %q, want substring %q", stderr, c.want)
			}
		})
	}
}

// TestQuickBenchRuns: a minimal single-benchmark sweep exits 0 and
// prints its characterization table.
func TestQuickBenchRuns(t *testing.T) {
	code, stdout, stderr := runCmd(t, "nasbench", "-bench", "EP", "-classes", "S", "-procs", "2", "-iters", "1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "NAS EP") {
		t.Fatalf("no characterization table in output:\n%s", stdout)
	}
}

// TestBackendFlagReachesTheRun: -backend real must select the kernel
// the benchmark runs on, not just parse — the saved reports say which
// clock stamped them.
func TestBackendFlagReachesTheRun(t *testing.T) {
	for _, bench := range []string{"CG", "MG-ARMCI"} {
		dir := t.TempDir()
		code, _, stderr := runCmd(t, "nasbench", "-bench", bench, "-classes", "S", "-procs", "2", "-iters", "1",
			"-backend", "real", "-json", dir, "-trace", filepath.Join(dir, "trace.json"))
		if code != 0 {
			t.Fatalf("%s: exit = %d, stderr: %s", bench, code, stderr)
		}
		trace, err := os.ReadFile(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(trace, []byte(`"clockDomain":"real"`)) {
			t.Errorf("%s: -backend real exported a trace with no real clock domain", bench)
		}
		if bench == "MG-ARMCI" {
			continue // -json covers the MPI benchmarks only
		}
		rep, err := overlap.LoadJSON(filepath.Join(dir, "cg-S-p2-rank0.json"))
		if err != nil {
			t.Fatal(err)
		}
		if rep.ClockDomain != "real" {
			t.Errorf("%s: report ClockDomain = %q, want real", bench, rep.ClockDomain)
		}
	}
}
