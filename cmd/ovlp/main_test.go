package main

import (
	"bytes"
	"strings"
	"testing"
)

// runCmd runs `ovlp <name> args...` in-process and returns its exit
// status and streams.
func runCmd(t *testing.T, name string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{name}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestVersionFlag: `ovlp -version` prints the build identity and exits
// 0, and a subcommand named after it never runs. The subtests cover the
// subcommands that had a -version flag of their own.
func TestVersionFlag(t *testing.T) {
	for _, sub := range []string{"collstudy", "faultstudy", "ftstudy", "nasbench", "overlapbench"} {
		t.Run(sub, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-version", sub}, &stdout, &stderr); code != 0 {
				t.Fatalf("-version exit = %d, want 0", code)
			}
			if !strings.HasPrefix(stdout.String(), "ovlp ") || strings.Count(stdout.String(), "\n") != 1 {
				t.Fatalf("-version output = %q", stdout.String())
			}
			if stderr.Len() != 0 {
				t.Fatalf("-version stderr = %q", stderr.String())
			}
		})
	}
}

// TestHelpExitsZero: -h prints a subcommand's flags on stderr and is
// not an error, on every subcommand.
func TestHelpExitsZero(t *testing.T) {
	for _, c := range subcommands {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(t, c.name, "-h")
			if code != 0 {
				t.Fatalf("-h exit = %d, want 0", code)
			}
			if stdout != "" || !strings.Contains(stderr, "Usage of "+c.name) {
				t.Fatalf("-h stdout = %q, stderr = %q; want the usage on stderr", stdout, stderr)
			}
		})
	}
}

// TestBadShapesExitTwo: flag values that once panicked deep in a run
// are configuration errors, rejected up front with exit 2 and a message
// under the subcommand's name.
func TestBadShapesExitTwo(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"spstudy", []string{"-classes", "A,"}},
		{"spstudy", []string{"-trace", "-", "-iters", "1"}}, // a sweep cannot be traced
		{"overhead", []string{"-class", ""}},
		{"timeline", []string{"-procs", "0"}},
		{"timeline", []string{"-procs", "-1"}},
	} {
		t.Run(tc.name+" "+strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := runCmd(t, tc.name, tc.args...)
			if code != 2 || stdout != "" || !strings.HasPrefix(stderr, tc.name+": ") {
				t.Fatalf("exit %d, stdout %q, stderr %q; want 2 and a %q message", code, stdout, stderr, tc.name+": ")
			}
		})
	}
}
