package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd captures run()'s streams and exit status.
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestVersionFlag(t *testing.T) {
	code, stdout, _ := runCmd(t, "-version")
	if code != 0 {
		t.Fatalf("-version exit = %d, want 0", code)
	}
	if !strings.HasPrefix(stdout, "ovlp ") {
		t.Fatalf("-version output = %q", stdout)
	}
}

// TestDiagnoseFlag: -diagnose - appends the ranked findings to stdout;
// a lossy sweep must at least produce the findings header.
func TestDiagnoseFlag(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-rates", "0.2", "-reps", "10", "-diagnose", "-")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "findings") {
		t.Fatalf("no findings block in output:\n%s", stdout)
	}
}

func TestBadFaultFlagsExitTwoBeforeRunning(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"stall-node-range", []string{"-stall", "5@1ms+2ms"}, "names node 5"},
		{"bad-stall-syntax", []string{"-stall", "nope"}, "bad stall"},
		{"bad-rate", []string{"-rates", "2.0"}, "bad drop rate"},
		{"scenario-missing", []string{"-scenario", "no-such-file.yaml"}, "no-such-file.yaml"},
		{"scenario-and-legacy", []string{"-scenario", "x.yaml", "-drop", "0.1"}, "mutually exclusive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(t, c.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr = %q, want substring %q", stderr, c.want)
			}
			if stdout != "" {
				t.Fatalf("bad flags must not produce output, got %q", stdout)
			}
		})
	}
}

func TestScenarioValidationMessageIsGolden(t *testing.T) {
	// A scenario whose chaos schedule names a node beyond the study's
	// two-process machine must fail validation with the exact message —
	// before any rank is spawned.
	dir := t.TempDir()
	path := filepath.Join(dir, "wide.yaml")
	src := `
name: wide
seed: 1
procs: 4
workload:
  kind: exchange
  size: 16K
  reps: 2
chaos:
  - at: 0s
    drop: 0.2
    nodes: [3]
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCmd(t, "-scenario", path)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
	}
	want := "faultstudy: fabric: schedule event 0 names node 3 outside [0, 2)\n"
	if stderr != want {
		t.Fatalf("stderr = %q\nwant     %q", stderr, want)
	}
}

func TestScenarioScheduleDrivesSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spike.yaml")
	src := `
name: spike
seed: 5
procs: 2
workload:
  kind: exchange
  size: 16K
  reps: 2
chaos:
  - label: burst
    at: 0s
    clear: 50ms
    drop: 0.3
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCmd(t, "-scenario", path, "-rates", "0", "-reps", "20", "-csv")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	// Even with the swept rate at 0, the scenario's schedule must have
	// injected drops (the "dropped" CSV column, field 5 of row 2).
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv output = %q", stdout)
	}
	fields := strings.Split(lines[1], ",")
	if len(fields) != 7 {
		t.Fatalf("csv row = %q", lines[1])
	}
	if fields[4] == "0" {
		t.Fatalf("scenario chaos schedule injected nothing: %q", lines[1])
	}
}

func TestCleanSweepStillWorks(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-rates", "0,0.05", "-reps", "10", "-csv")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %q", stdout)
	}
}
