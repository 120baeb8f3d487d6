package main

import (
	"strings"
	"testing"
)

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-crash", "nonsense"},
		{"-crash", "9@1ms"},                       // node 9 on a 4-rank machine
		{"-crash", "1@1ms,2@2ms", "-procs", "3"},  // fewer than two survivors
		{"-crash", "1@1ms", "-recover", "resume"}, // unknown mode
		{"-procs", "1"},
	} {
		code, _, stderr := runCmd(t, "ftstudy", args...)
		if code != 2 {
			t.Errorf("%v: exit = %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
}

// TestCrashedRun: the crashed run must recover, name the dead rank and
// show per-epoch accounting; the baseline row stays failure-free.
func TestCrashedRun(t *testing.T) {
	code, stdout, stderr := runCmd(t, "ftstudy",
		"-crash", "2@800us", "-steps", "6", "-size", "262144")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"crashes: node 2 @ 800µs (shrink-continue recovery)",
		"baseline", "crashed",
		"failed ranks [2]", "completed true",
		"Per-epoch accounting",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
}

// TestCheckpointRestart: -recover checkpoint-restart commits
// checkpoints and the diagnosis flag reports the rank failure.
func TestCheckpointRestart(t *testing.T) {
	code, stdout, stderr := runCmd(t, "ftstudy",
		"-crash", "2@1ms", "-recover", "checkpoint-restart",
		"-steps", "6", "-size", "262144", "-diagnose", "-")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "checkpoint-restart recovery") {
		t.Errorf("header missing recovery mode:\n%s", stdout)
	}
	if !strings.Contains(stdout, "findings") {
		t.Errorf("no findings block in output:\n%s", stdout)
	}
	if !strings.Contains(stdout, "rank-failure") {
		t.Errorf("-diagnose must cite the declared crash:\n%s", stdout)
	}
}
