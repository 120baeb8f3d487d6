package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestOvlpreportReadsSweepReports: the per-rank reports `sweep -json`
// writes come back as one table row per rank and the across-ranks
// line, whose mean and spread are those of the rows.
func TestOvlpreportReadsSweepReports(t *testing.T) {
	dir := t.TempDir()
	lu := nasSpec(t, "4", "{kind: nas, bench: LU, iters: 2}", "[min%]")
	if code, _, stderr := runCmd(t, "sweep", "-json", dir, lu); code != 0 {
		t.Fatalf("sweep exit %d: %s", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 4 {
		t.Fatalf("sweep wrote %v (%v), want 4 reports", files, err)
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

// TestOvlpreportBins: -bins over process 0's report is process 0's
// message-size breakdown, row for row as the NAS driver printed it for
// LU class S on 4 procs, 10 iterations.
func TestOvlpreportBins(t *testing.T) {
	dir := t.TempDir()
	lu := nasSpec(t, "4", "{kind: nas, bench: LU, class: S, iters: 10}", "[min%]")
	if code, _, stderr := runCmd(t, "sweep", "-json", dir, lu); code != 0 {
		t.Fatalf("sweep exit %d: %s", code, stderr)
	}
	code, stdout, stderr := runCmd(t, "ovlpreport", "-bins", filepath.Join(dir, "x-0-instrumented-rank0.json"))
	if code != 0 {
		t.Fatalf("ovlpreport exit %d: %s", code, stderr)
	}
	const rows = "" +
		"  size bin  xfers  data xfer  min%  max%  non-overlapped\n" +
		"  --------  -----  ---------  ----  ----  --------------\n" +
		"  <=1K      490    2.113ms    0.9   94.7  111µs\n" +
		"  1K-8K     40     290µs      0.0   50.0  145µs\n"
	if !strings.HasSuffix(stdout, rows) {
		t.Errorf("want the breakdown to end the output:\n%s\ngot:\n%s", rows, stdout)
	}
}
