package main

import (
	"strings"
	"testing"
)

// TestCollstudyBadFlagsExitTwo: validation failures exit 2 with a message on
// stderr, before any simulation starts.
func TestCollstudyBadFlagsExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"malformed-procs", []string{"-procs", "x"}, "-procs"},
		{"nonpositive-procs", []string{"-procs", "0"}, "bad processor count"},
		{"unknown-op", []string{"-op", "igather"}, `unknown collective "igather"`},
		{"bad-size", []string{"-sizes", "4Q"}, "bad size"},
		{"scenario-and-legacy", []string{"-scenario", "x.yaml", "-drop", "0.1"}, "mutually exclusive"},
		{"trace-needs-single", []string{"-trace", "out.json", "-modes", "manual,thread"}, "single run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, "collstudy", c.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr = %q, want substring %q", stderr, c.want)
			}
		})
	}
}

// TestQuickStudyRuns: a minimal configuration exits 0 and prints its
// table.
func TestQuickStudyRuns(t *testing.T) {
	code, stdout, stderr := runCmd(t, "collstudy",
		"-op", "iallreduce", "-procs", "2", "-sizes", "4K",
		"-algos", "ring", "-modes", "manual", "-reps", "2")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Nonblocking iallreduce") {
		t.Fatalf("no table in output:\n%s", stdout)
	}
}
