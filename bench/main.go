// Bench is the host-cost benchmark of the ovlp simulator: four
// closed-loop, single-client workloads measured end to end, and — in
// the traced run — per layer, with an ablation ladder and direct layer
// probes. See README.md in this directory.
//
// Usage (from the repository root, via bench/run.sh which builds it):
//
//	bench -workload nas_lu -seed 1 -seconds 15 -trace 0   end-to-end metrics
//	bench -workload nas_lu -seed 1 -seconds 15 -trace 1   per-layer metrics
//	bench -workload all                                   all four in sequence
//	bench -compare A.json B.json                          repeatability check
//	bench -write-expected                                 re-pin simulated statistics
//
// All timings are host time. The last line of standard output of a
// single-workload run is one JSON object: correct, attempted, failed,
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	// The simulator runs exactly one context at a time and the client is
	// one goroutine, so one P loses nothing — and with two, every
	// channel handoff between procs may cross OS threads and wait on the
	// hypervisor to wake a halted vCPU. On the shared reference box that
	// wait moved nas_lu between 19 and 27 ops/s within an hour while the
	// same binary on one P stayed within 30-32. The collector then runs
	// on the measured thread too, so allocation shows in the timings.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: nas_lu, coll_sweep, scenario_corpus, trace_analysis or all")
	seed := fs.Int64("seed", 1, "seeds the generated inputs (scenario fault PRNGs, the lossy trace); same seed, same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed window; the traced run sizes its ladder and probes from it too")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", "", "also append the results to the JSON array in this file")
	compare := fs.Bool("compare", false, "compare two results files (arguments: A.json B.json) against the bounds in BENCHMARK.json")
	writeExpected := fs.Bool("write-expected", false, "regenerate bench/expected.json from what the simulator produces now")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	man, err := loadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		worse, err := compareFiles(stdout, man, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -trace 0 or 1, and no positional arguments")
		return 2
	}

	expPath := filepath.Join(root, "bench", "expected.json")
	e := &env{root: root, seed: *seed, exp: &expected{}, write: *writeExpected}
	if *writeExpected {
		for _, wl := range workloads() {
			if _, err := wl.setup(e); err != nil {
				return fail(err)
			}
		}
		if err := writeJSON(expPath, e.exp); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", expPath)
		return 0
	}
	if err := readJSON(expPath, e.exp); err != nil {
		return fail(err)
	}

	var selected []workload
	for _, wl := range workloads() {
		if *name == "all" || *name == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}

	var results []*result
	var spans []span
	for _, wl := range selected {
		var r *result
		if *traced == 1 {
			var sp []span
			r, sp, err = runTraced(wl, e, *seconds, man)
			spans = append(spans, sp...)
		} else {
			r, err = runUntraced(wl, e, *seconds, man)
		}
		if err != nil {
			return fail(err)
		}
		r.print(stdout)
		results = append(results, r)
	}
	if *traced == 1 {
		outDir := filepath.Join(root, "bench", "out")
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fail(err)
		}
		if err := writeSpans(filepath.Join(outDir, "spans.json"), spans); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			return fail(err)
		}
	}
	// The machine-readable line goes last, one per workload.
	for _, r := range results {
		line, err := json.Marshal(r.contractLine())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	for _, r := range results {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// findRoot walks up from the working directory to the repository
// root, recognised by BENCHMARK.json: the benchmark is run from the
// root, its tests from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
