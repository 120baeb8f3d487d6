package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ovlp/internal/diagnose"
)

const corpusDir = "../../scenarios"

// TestCorpusShape pins the corpus contract from the issue: at least
// ten committed scenarios, of which at least three came out of the
// seeded generator, and a golden report for every one of them.
func TestCorpusShape(t *testing.T) {
	scenarios, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(scenarios) < 10 {
		t.Fatalf("corpus has %d scenarios, want >= 10", len(scenarios))
	}
	gen := 0
	for _, s := range scenarios {
		if strings.HasPrefix(s.Name, "gen-") {
			gen++
		}
		golden := filepath.Join(corpusDir, "golden", s.Name+".json")
		if _, err := os.Stat(golden); err != nil {
			t.Errorf("scenario %s has no golden report: %v", s.Name, err)
		}
	}
	if gen < 3 {
		t.Errorf("corpus has %d generated scenarios, want >= 3", gen)
	}
}

// TestCorpusSmoke runs every committed scenario in smoke mode (the CI
// configuration) and requires zero assertion violations.
func TestCorpusSmoke(t *testing.T) {
	scenarios, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, s := range scenarios {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rr, err := Run(s, Opts{Smoke: true})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, v := range Evaluate(rr) {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

// TestCorpusFullMatchesGoldens runs every committed scenario at full
// size, requires zero violations, and byte-compares the produced
// report against the committed golden. Scenarios that also commit a
// findings golden (<name>.findings.json) get their diagnosis JSON
// byte-compared the same way. A drift here means either a regression
// in the simulator/instrumentation or an intentional behaviour
// change; regenerate with
//
//	go run ./cmd/ovlp scenario -golden scenarios/golden -write-golden scenarios/
//	go run ./cmd/ovlp scenario -findings scenarios/golden scenarios/09-phase-collapse.yaml scenarios/10-straggler.yaml
//
// only after deciding the change is intentional.
func TestCorpusFullMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size corpus run skipped in -short mode")
	}
	scenarios, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, s := range scenarios {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rr, err := Run(s, Opts{Findings: true})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, v := range Evaluate(rr) {
				t.Errorf("violation: %s", v)
			}
			golden, err := os.ReadFile(filepath.Join(corpusDir, "golden", s.Name+".json"))
			if err != nil {
				t.Fatalf("golden: %v", err)
			}
			if !bytes.Equal(rr.ReportBytes, golden) {
				t.Errorf("report drifted from golden (%d vs %d bytes); regenerate with -write-golden if intentional",
					len(rr.ReportBytes), len(golden))
			}
			fGolden, err := os.ReadFile(filepath.Join(corpusDir, "golden", s.Name+".findings.json"))
			if os.IsNotExist(err) {
				return // findings goldens are only committed for some scenarios
			}
			if err != nil {
				t.Fatalf("findings golden: %v", err)
			}
			if rr.Findings == nil {
				t.Fatal("findings golden committed but run produced no diagnosis")
			}
			var buf bytes.Buffer
			if err := diagnose.WriteJSON(&buf, rr.Findings); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), fGolden) {
				t.Errorf("findings drifted from golden (%d vs %d bytes); regenerate with ovlp scenario -findings if intentional",
					buf.Len(), len(fGolden))
			}
		})
	}
}
