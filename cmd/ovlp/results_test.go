package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// hostTime matches the one host-dependent thing in the committed
// outputs: the wall time overlapbench and nasbench print under each
// table, "  (13 points, 668ms)" and "  (3.374s)".
var hostTime = regexp.MustCompile(`(?m)^  \((\d+ points, )?[0-9.hmnsµ]+\)$`)

// TestCommittedResultsReproduce reruns the commands EXPERIMENTS.md and
// README.md list for results/*.txt and compares each output with the
// committed file byte for byte, host wall times masked.
func TestCommittedResultsReproduce(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"timeline-ring.txt", []string{"timeline", "-scenario", "ring"}},
		{"timeline-ring-probe.txt", []string{"timeline", "-scenario", "ring-probe"}},
		{"overhead.txt", []string{"overhead", "-class", "A"}},
		{"comb.txt", []string{"comb"}},
		{"spstudy.txt", []string{"spstudy", "-classes", "A,B", "-procs", "4,9,16", "-iters", "10"}},
		{"overlapbench.txt", []string{"overlapbench", "-reps", "500"}},
		{"nasbench.txt", []string{"nasbench", "-bench", "paper", "-classes", "S,W,A,B", "-iters", "10"}},
	} {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", c.file))
			if err != nil {
				t.Fatal(err)
			}
			code, got, stderr := runCmd(t, c.args[0], c.args[1:]...)
			if code != 0 {
				t.Fatalf("exit = %d, stderr: %s", code, stderr)
			}
			mask := func(b string) string { return hostTime.ReplaceAllString(b, "  (${1}host time)") }
			if g, w := mask(got), mask(string(want)); g != w {
				t.Errorf("ovlp %v no longer reproduces results/%s:\ngot:\n%s\nwant:\n%s", c.args, c.file, g, w)
			}
		})
	}
}
