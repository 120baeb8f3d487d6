package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// gate runs the command with the overlap suite only (the cheapest) and
// returns its exit code and combined output.
func gate(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code := benchgateMain(args, &out, &out)
	return code, out.String()
}

// TestGateRoundTrip pins the exit-code contract end to end: write
// baselines (0), compare clean (0), injected regression trips the gate
// (1) with machine-parseable violation lines, and -explain names the
// dominant blame cause behind the regressed entries.
func TestGateRoundTrip(t *testing.T) {
	dir := t.TempDir()

	code, out := gate(t, "-dir", dir, "-suites", "overlap", "-write")
	if code != 0 {
		t.Fatalf("-write exit %d:\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_overlap.json")); err != nil {
		t.Fatalf("baseline not written: %v", err)
	}

	code, out = gate(t, "-dir", dir, "-suites", "overlap")
	if code != 0 {
		t.Fatalf("clean compare exit %d:\n%s", code, out)
	}

	code, out = gate(t, "-dir", dir, "-suites", "overlap", "-inject-pct", "10")
	if code != 1 {
		t.Fatalf("injected regression exit %d, want 1:\n%s", code, out)
	}
	line := regexp.MustCompile(`(?m)^  gate suite=overlap entry=[\w-]+ metric=wall_ns want=\d+.* delta=\+10\.00 tol=2:`)
	if !line.MatchString(out) {
		t.Fatalf("no structured wall_ns violation line in:\n%s", out)
	}

	code, out = gate(t, "-dir", dir, "-suites", "overlap", "-inject-pct", "10", "-explain")
	if code != 1 {
		t.Fatalf("-explain exit %d, want 1:\n%s", code, out)
	}
	explain := regexp.MustCompile(`(?m)^explain overlap/eager-10KiB: [\d.]+% of the \S+ bound gap is [a-z-]+`)
	if !explain.MatchString(out) {
		t.Fatalf("no dominant-cause explain line in:\n%s", out)
	}
	if !strings.Contains(out, "findings") {
		t.Fatalf("-explain printed no findings block:\n%s", out)
	}
}

// TestGateUsageErrors: bad flags and unknown suites exit 2 before any
// measurement; a missing baseline exits 1 with a -write hint.
func TestGateUsageErrors(t *testing.T) {
	if code, _ := gate(t, "-nope"); code != 2 {
		t.Errorf("bad flag exit %d, want 2", code)
	}
	if code, out := gate(t, "-suites", "overlap,warp"); code != 2 || !strings.Contains(out, `unknown suite "warp"`) {
		t.Errorf("unknown suite exit %d, want 2 (%s)", code, out)
	}
	if code, out := gate(t, "-dir", t.TempDir(), "-suites", "overlap"); code != 1 || !strings.Contains(out, "-write") {
		t.Errorf("missing baseline exit %d, want 1 with -write hint (%s)", code, out)
	}
}
