package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeScenario(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const passingYAML = `
name: pass-demo
seed: 11
procs: 2
deadline: 2s
workload:
  kind: exchange
  size: 32K
  reps: 4
  compute: 200us
assert:
  - check: bounds_valid
  - check: error_absent
`

const failingYAML = `
name: fail-demo
seed: 11
procs: 2
deadline: 2s
workload:
  kind: exchange
  size: 32K
  reps: 4
  compute: 200us
assert:
  - check: overlap
    min_pct: 99.9
`

func TestPassingScenarioExitsZero(t *testing.T) {
	dir := t.TempDir()
	path := writeScenario(t, dir, "pass.yaml", passingYAML)
	code, stdout, stderr := runCmd(t, "scenario", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "pass-demo") || !strings.Contains(stdout, "PASS") {
		t.Fatalf("stdout = %q", stdout)
	}
	if !strings.Contains(stdout, "1 scenario(s), 0 failed") {
		t.Fatalf("missing summary: %q", stdout)
	}
}

func TestViolationExitsOneAndNamesEverything(t *testing.T) {
	dir := t.TempDir()
	path := writeScenario(t, dir, "fail.yaml", failingYAML)
	code, stdout, stderr := runCmd(t, "scenario", path)
	if code != 1 {
		t.Fatalf("exit = %d, stdout: %s", code, stdout)
	}
	// The structured failure names scenario, assertion, expected and
	// observed.
	if !strings.Contains(stderr, "VIOLATION fail-demo: overlap:") {
		t.Fatalf("stderr = %q", stderr)
	}
	if !strings.Contains(stderr, "expected overlap >= 99.9%") || !strings.Contains(stderr, "observed") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestInvalidScenarioExitsTwo(t *testing.T) {
	dir := t.TempDir()
	path := writeScenario(t, dir, "bad.yaml", "name: bad\nprocs: 1\nworkload:\n  kind: exchange\n  size: 1K\n  reps: 1\n")
	code, _, stderr := runCmd(t, "scenario", path)
	if code != 2 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stderr, "at least 2") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestDirectoryRunAndReports(t *testing.T) {
	dir := t.TempDir()
	writeScenario(t, dir, "a.yaml", passingYAML)
	writeScenario(t, dir, "b.yaml", strings.Replace(passingYAML, "pass-demo", "pass-two", 1))
	repDir := filepath.Join(dir, "reports")
	code, stdout, stderr := runCmd(t, "scenario", "-report", repDir, dir)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "2 scenario(s), 0 failed") {
		t.Fatalf("stdout = %q", stdout)
	}
	for _, name := range []string{"pass-demo.json", "pass-two.json"} {
		b, err := os.ReadFile(filepath.Join(repDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"schema": 1`) {
			t.Fatalf("report %s = %q", name, b)
		}
	}
}

func TestGoldenWriteThenVerifyThenMismatch(t *testing.T) {
	dir := t.TempDir()
	path := writeScenario(t, dir, "pass.yaml", passingYAML)
	golden := filepath.Join(dir, "golden")

	code, _, stderr := runCmd(t, "scenario", "-golden", golden, "-write-golden", path)
	if code != 0 {
		t.Fatalf("write-golden exit = %d, stderr: %s", code, stderr)
	}
	code, _, stderr = runCmd(t, "scenario", "-golden", golden, path)
	if code != 0 {
		t.Fatalf("verify exit = %d, stderr: %s", code, stderr)
	}
	// Changing the seed changes the bytes; the golden comparison must
	// catch it.
	changed := strings.Replace(passingYAML, "seed: 11", "seed: 12", 1)
	writeScenario(t, dir, "pass.yaml", changed)
	code, _, stderr = runCmd(t, "scenario", "-golden", golden, path)
	if code != 1 {
		t.Fatalf("mismatch exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "golden") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestGoldenRejectsSmoke(t *testing.T) {
	code, _, stderr := runCmd(t, "scenario", "-golden", "g", "-smoke", "x.yaml")
	if code != 2 || !strings.Contains(stderr, "full-size") {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
}

func TestGenerateWritesRunnableCorpus(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCmd(t, "scenario", "-gen", "3", "-gen-seed", "9", "-gen-out", dir)
	if code != 0 {
		t.Fatalf("gen exit = %d, stderr: %s", code, stderr)
	}
	if strings.Count(stdout, "wrote ") != 3 {
		t.Fatalf("stdout = %q", stdout)
	}
	// The generated corpus must load and pass in smoke mode.
	code, stdout, stderr = runCmd(t, "scenario", "-smoke", dir)
	if code != 0 {
		t.Fatalf("smoke run exit = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "3 scenario(s), 0 failed") {
		t.Fatalf("stdout = %q", stdout)
	}
}

func TestNoArgsExitsTwo(t *testing.T) {
	code, _, stderr := runCmd(t, "scenario")
	if code != 2 || !strings.Contains(stderr, "no scenario files") {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
}

// TestListChecksGolden: the -list-checks catalogue is byte-pinned, so
// adding a check or a vocabulary entry shows up in review. Regenerate
// with: go run ./cmd/ovlp scenario -list-checks > cmd/ovlp/testdata/list-checks.golden
func TestListChecksGolden(t *testing.T) {
	code, stdout, stderr := runCmd(t, "scenario", "-list-checks")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "list-checks.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("-list-checks drifted from the golden; regenerate it if the change is intended.\ngot:\n%s\nwant:\n%s", stdout, want)
	}
}
