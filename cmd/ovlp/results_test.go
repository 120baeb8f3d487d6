package main

import (
	"os"
	"path/filepath"
	"testing"
)

// spec is the path of a committed spec file.
func spec(name string) string { return filepath.Join("..", "..", "specs", name+".yaml") }

// specs returns the paths of committed spec files.
func specs(names ...string) []string {
	var out []string
	for _, n := range names {
		out = append(out, spec(n))
	}
	return out
}

// TestCommittedResultsReproduce reruns the commands EXPERIMENTS.md and
// README.md list for results/*.txt and compares each output with the
// committed file byte for byte. The runs share no state, so they run
// in parallel.
func TestCommittedResultsReproduce(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"timeline-ring.txt", []string{"timeline", "-scenario", "ring"}},
		{"timeline-ring-probe.txt", []string{"timeline", "-scenario", "ring-probe"}},
		{"overhead.txt", append([]string{"sweep"}, specs("fig20")...)},
		{"comb.txt", append([]string{"sweep"}, specs("comb-pipelined-pww", "comb-pipelined-polling",
			"comb-direct-pww", "comb-direct-polling")...)},
		{"spstudy.txt", append([]string{"sweep"}, specs("fig14-15-a", "fig16-17-a", "fig18-a",
			"fig14-15-b", "fig16-17-b", "fig18-b")...)},
		{"overlapbench.txt", append([]string{"sweep"}, specs("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")...)},
		{"nasbench.txt", append([]string{"sweep"}, specs("fig10", "fig11", "fig12", "fig13", "fig19")...)},
	} {
		t.Run(c.file, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("..", "..", "results", c.file))
			if err != nil {
				t.Fatal(err)
			}
			code, got, stderr := runCmd(t, c.args[0], c.args[1:]...)
			if code != 0 {
				t.Fatalf("exit = %d, stderr: %s", code, stderr)
			}
			if got != string(want) {
				t.Errorf("ovlp %v no longer reproduces results/%s:\ngot:\n%s\nwant:\n%s", c.args, c.file, got, want)
			}
		})
	}
}
