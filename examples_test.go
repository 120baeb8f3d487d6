package ovlp

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestExamplesRun builds every program under examples/ and runs it:
// each exits 0 and opens with the line its walkthrough starts from.
// The wall-clock example's first line carries a host timing, so only
// its shape is pinned.
func TestExamplesRun(t *testing.T) {
	bin := t.TempDir()
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(goCmd, "build", "-o", bin+"/", "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for name, first := range map[string]string{
		"onesided":   `one-sided streaming pipeline — blocking vs non-blocking puts`,
		"quickstart": `ring pipeline finished in 26\.907516ms of virtual time`,
		"stencil":    `2-D Jacobi halo exchange on a 2x2 grid — three code structures`,
		"wallclock":  `calibrated: one 16 MiB copy takes [0-9.]+[µm]?s`,
	} {
		t.Run(name, func(t *testing.T) {
			var stdout bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout = &stdout
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			line, _, _ := strings.Cut(stdout.String(), "\n")
			if !regexp.MustCompile("^" + first + "$").MatchString(line) {
				t.Errorf("%s first line = %q, want %q", name, line, first)
			}
		})
	}
}
