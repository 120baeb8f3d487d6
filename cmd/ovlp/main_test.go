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
