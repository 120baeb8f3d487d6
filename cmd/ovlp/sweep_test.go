package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepBadFlagsExitTwo: a bad flag, spec or fault plan exits 2 with
// a message on stderr, before any simulation starts.
func TestSweepBadFlagsExitTwo(t *testing.T) {
	dir := t.TempDir()
	nasSpec := func(name, workload, table string) string {
		path := filepath.Join(dir, name+".yaml")
		body := "name: x\nprocs: 4\nworkload: " + workload + "\ntitle: t\ntable: " + table + "\nsweep:\n  - iters: [1]\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"bad-flag", []string{"-nope", spec("fig3")}, "-nope"},
		{"no-spec", nil, "spec file"},
		{"missing-spec", []string{"no-such.yaml"}, "no-such.yaml"},
		{"fault-node-range", []string{"-stall", "5@1ms+2ms", spec("fig3")}, "names node 5"},
		{"bad-class", []string{nasSpec("class", "{kind: nas, bench: LU, class: Z}", "[benchmark]")}, "LU has no class Z"},
		{"bad-bench", []string{nasSpec("bench", "{kind: nas, bench: QQ}", "[benchmark]")}, `unknown benchmark "QQ"`},
		{"unknown-column", []string{nasSpec("column", "{kind: nas, bench: LU}", "[nope]")}, `no column "nope"`},
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
