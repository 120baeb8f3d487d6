package main

import (
	"strings"
	"testing"
)

// TestOverlapbenchBadFlagsExitTwo: validation failures exit 2 with a message on
// stderr, before any simulation starts.
func TestOverlapbenchBadFlagsExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"bad-flag", []string{"-nope"}, "-nope"},
		{"bad-figure", []string{"-fig", "12"}, "no paper figure 12"},
		{"scenario-and-legacy", []string{"-scenario", "x.yaml", "-drop", "0.1"}, "mutually exclusive"},
		{"fault-node-range", []string{"-stall", "5@1ms+2ms"}, "names node 5"},
		{"trace-needs-fig", []string{"-trace", "out.json"}, "single figure"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, "overlapbench", c.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr = %q, want substring %q", stderr, c.want)
			}
		})
	}
}

// TestSingleFigureWithDiagnose: a quick single-figure run succeeds and
// -diagnose prints the findings block for the traced point.
func TestSingleFigureWithDiagnose(t *testing.T) {
	code, stdout, stderr := runCmd(t, "overlapbench", "-fig", "3", "-reps", "5", "-diagnose", "-")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "findings") {
		t.Fatalf("no findings block in output:\n%s", stdout)
	}
}
