package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ovlp/internal/diagnose"
	"ovlp/internal/scenario"
)

// scenarioMain runs declarative chaos scenarios: YAML/JSON files that
// pick a topology and workload, schedule correlated faults over
// virtual time, and assert machine-checkable expectations on the
// outcome — overlap-bound ranges, blame shares, expected structured
// errors, oracle validity, and determinism hashes.
//
//	ovlp scenario [flags] <file-or-dir>...
//	ovlp scenario -gen 5 -gen-seed 42 -gen-out scenarios/
//
// Each argument is one scenario file or a directory of them (sorted
// by file name). Every scenario is simulated and its assertions
// evaluated; violations print as
//
//	VIOLATION <scenario>: <check>: expected <...>, observed <...>
//
// and make the exit status 1. Bad flags or invalid scenario files
// exit 2 before any simulation starts.
//
//	-smoke        shrink runs for CI (procs <= 4, reps <= 5, iters <= 2;
//	              golden-hash and time_resolved assertions are skipped)
//	-backend B    execution backend: virtual (default) or real. Real
//	              runs execute on the wall clock, so the determinism,
//	              trace_hash and report_hash assertions are skipped,
//	              each printing a named "SKIP <check>: <reason>" line
//	              under the scenario's summary rather than passing
//	              silently; chaos and crash scenarios run like any
//	              other
//	-report DIR   write each scenario's run-report JSON into DIR
//	-golden DIR   byte-compare each report against DIR/<name>.json
//	-write-golden (re)write the golden files instead of comparing
//	-timeresolved DIR  write each scenario's windowed efficiency CSV
//	              (internal/timeres) into DIR as <name>.timeres.csv
//	-findings DIR write each scenario's diagnosis findings JSON
//	              (internal/diagnose) into DIR as <name>.findings.json
//	-gen N        generate N seeded stress scenarios and exit
//	-list-checks  print the assertion-check catalogue (every check with
//	              its fields and the closed vocabularies) and exit
//
// Determinism is the engine's contract: the same scenario file always
// produces byte-identical trace and report, so golden files are exact
// and a mismatch means behaviour actually changed.
func scenarioMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("scenario", stderr)
	smoke := fs.Bool("smoke", false, "shrink runs for CI; golden-hash assertions are skipped")
	reportDir := fs.String("report", "", "write each scenario's run-report JSON into this directory")
	goldenDir := fs.String("golden", "", "byte-compare each run report against <dir>/<name>.json")
	writeGolden := fs.Bool("write-golden", false, "write the golden files under -golden instead of comparing")
	timeresDir := fs.String("timeresolved", "", "write each scenario's windowed time-resolved CSV into this directory")
	findingsDir := fs.String("findings", "", "write each scenario's diagnosis findings JSON into this directory")
	listChecks := fs.Bool("list-checks", false, "print the assertion-check catalogue and exit")
	bf := registerBackend(fs)
	gen := fs.Int("gen", 0, "generate this many seeded stress scenarios and exit")
	genSeed := fs.Int64("gen-seed", 42, "generator seed (same seed, same scenarios)")
	genOut := fs.String("gen-out", ".", "directory the generated scenario files are written into")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail2 := failWith(stderr, "scenario", 2)

	if *listChecks {
		if err := scenario.WriteChecks(stdout); err != nil {
			return fail2(err)
		}
		return 0
	}
	if *gen > 0 {
		return generate(*gen, *genSeed, *genOut, stdout, stderr)
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "scenario: no scenario files given (pass files or directories, or -gen N)")
		return 2
	}
	if *goldenDir != "" && *smoke {
		return fail2(fmt.Errorf("-golden needs full-size runs; drop -smoke"))
	}
	if *goldenDir != "" && bf.Real() {
		return fail2(fmt.Errorf("-golden needs deterministic bytes; drop -backend real"))
	}
	if *writeGolden && *goldenDir == "" {
		return fail2(fmt.Errorf("-write-golden needs -golden DIR"))
	}

	// Load everything first: an invalid corpus exits 2 before any
	// simulation runs.
	var scens []*scenario.Scenario
	seen := map[string]bool{}
	for _, arg := range fs.Args() {
		st, err := os.Stat(arg)
		if err != nil {
			return fail2(err)
		}
		var batch []*scenario.Scenario
		if st.IsDir() {
			batch, err = scenario.LoadDir(arg)
		} else {
			var s *scenario.Scenario
			s, err = scenario.LoadFile(arg)
			batch = []*scenario.Scenario{s}
		}
		if err != nil {
			return fail2(err)
		}
		for _, s := range batch {
			if seen[s.Name] {
				return fail2(fmt.Errorf("duplicate scenario name %q", s.Name))
			}
			seen[s.Name] = true
			scens = append(scens, s)
		}
	}
	for _, dir := range []string{*reportDir, *goldenDir, *timeresDir, *findingsDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fail2(err)
			}
		}
	}

	failed := 0
	opts := scenario.Opts{Smoke: *smoke, TimeRes: *timeresDir != "", Findings: *findingsDir != "", Backend: bf.Backend()}
	for _, s := range scens {
		rr, err := scenario.Run(s, opts)
		if err != nil {
			return fail2(err)
		}
		violations := scenario.Evaluate(rr)
		if *goldenDir != "" {
			golden, err := checkGolden(rr, *goldenDir, *writeGolden, stdout)
			if err != nil {
				return fail2(err)
			}
			violations = append(violations, golden...)
		}
		scenario.WriteText(stdout, rr, violations)
		if len(violations) > 0 {
			failed++
			for _, v := range violations {
				fmt.Fprintf(stderr, "VIOLATION %s\n", v)
			}
		}
		if *reportDir != "" {
			path := filepath.Join(*reportDir, s.Name+".json")
			if err := os.WriteFile(path, rr.ReportBytes, 0o644); err != nil {
				return fail2(err)
			}
		}
		if *timeresDir != "" {
			if rr.TimeRes == nil {
				fmt.Fprintf(stderr, "scenario: %s: no time-resolved snapshot (stream not replayable)\n", s.Name)
			} else {
				var buf bytes.Buffer
				if err := rr.TimeRes.WriteCSV(&buf); err != nil {
					return fail2(err)
				}
				path := filepath.Join(*timeresDir, s.Name+".timeres.csv")
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					return fail2(err)
				}
			}
		}
		if *findingsDir != "" {
			if rr.Findings == nil {
				fmt.Fprintf(stderr, "scenario: %s: no diagnosis (stream not replayable)\n", s.Name)
			} else {
				var buf bytes.Buffer
				if err := diagnose.WriteJSON(&buf, rr.Findings); err != nil {
					return fail2(err)
				}
				path := filepath.Join(*findingsDir, s.Name+".findings.json")
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					return fail2(err)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%d scenario(s), %d failed\n", len(scens), failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// checkGolden byte-compares (or rewrites) the scenario's golden run
// report; a mismatch is reported as a violation so it shares the
// structured failure path, a failed rewrite as an error.
func checkGolden(rr *scenario.RunResult, dir string, write bool, stdout io.Writer) ([]scenario.Violation, error) {
	path := filepath.Join(dir, rr.Scenario.Name+".json")
	if write {
		if err := os.WriteFile(path, rr.ReportBytes, 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "wrote golden %s\n", path)
		return nil, nil
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return []scenario.Violation{{
			Scenario: rr.Scenario.Name, Check: "golden",
			Expected: "a golden report at " + path,
			Observed: err.Error(),
		}}, nil
	}
	if string(want) != string(rr.ReportBytes) {
		return []scenario.Violation{{
			Scenario: rr.Scenario.Name, Check: "golden",
			Expected: fmt.Sprintf("report bytes matching %s (%d bytes)", path, len(want)),
			Observed: fmt.Sprintf("%d bytes, hash %s", len(rr.ReportBytes), rr.ReportHash),
		}}, nil
	}
	return nil, nil
}

func generate(n int, seed int64, outDir string, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "scenario: %v\n", err)
		return 2
	}
	for _, s := range scenario.Generate(seed, n) {
		b, err := s.EncodeJSON()
		if err != nil {
			fmt.Fprintf(stderr, "scenario: %v\n", err)
			return 2
		}
		path := filepath.Join(outDir, s.Name+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintf(stderr, "scenario: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return 0
}
