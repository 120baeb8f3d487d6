package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestOvlpreportReadsNasbenchReports: the per-rank reports `nasbench
// -json` writes come back as one table row per rank and the
// across-ranks line, whose mean and spread are those of the rows.
func TestOvlpreportReadsNasbenchReports(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := runCmd(t, "nasbench", "-bench", "LU", "-classes", "S", "-procs", "4", "-iters", "2", "-json", dir); code != 0 {
		t.Fatalf("nasbench exit %d: %s", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 4 {
		t.Fatalf("nasbench wrote %v (%v), want 4 reports", files, err)
	}
	code, stdout, stderr := runCmd(t, "ovlpreport", files...)
	if code != 0 {
		t.Fatalf("ovlpreport exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "Per-rank overlap summary\n") {
		t.Errorf("no per-rank table:\n%s", stdout)
	}
	for _, row := range []string{"\n  0 ", "\n  1 ", "\n  2 ", "\n  3 "} {
		if !strings.Contains(stdout, row) {
			t.Errorf("no row for rank %s:\n%s", strings.TrimSpace(row), stdout)
		}
	}
	const across = "across ranks: min% mean 11.5 (spread 0.0..22.7), max% mean 90.1 (spread 87.4..92.5)\n"
	if !strings.Contains(stdout, across) {
		t.Errorf("want the line %q in:\n%s", across, stdout)
	}
}
