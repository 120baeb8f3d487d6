package scenario

// The assertion taxonomy as data. checkDocs is the single source the
// validator derives its known-check vocabulary from and that
// cmd/scenario -list-checks renders, so the printed catalogue cannot
// drift from what Validate accepts; a test cross-checks every listed
// field against the Assertion struct's JSON tags.

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ovlp/internal/diagnose"
	"ovlp/internal/timeres"
)

// CheckDoc documents one assertion kind: the check name, the
// Assertion fields (JSON names) that parameterize it, and a one-line
// summary of what it proves.
type CheckDoc struct {
	Name    string
	Fields  []string
	Summary string
}

// checkDocs lists every assertion kind, in the order scenarios
// usually declare them.
var checkDocs = []CheckDoc{
	{"overlap", []string{"region", "rank", "min_pct", "max_pct", "tol_pct"},
		"a region's measured min/max overlap percent must fall inside the declared bounds"},
	{"blame_share", []string{"category", "min_share", "max_share"},
		"the named blame category's share of the profiler's attributed gap must lie in [min_share, max_share]"},
	{"error", []string{"error", "rank"},
		"a structured error must occur — on the given rank when rank is set, anywhere otherwise"},
	{"error_absent", []string{"error", "rank"},
		"the structured error must not occur (error defaults to any)"},
	{"bounds_valid", nil,
		"min <= true <= max for every transfer, against the simulator's ground-truth wire records"},
	{"conservation", nil,
		"the oracle's replayed totals equal the instrumentation's report, per rank and whole-run"},
	{"determinism", nil,
		"an immediate rerun with the same seed (simulation, export, profile and report; not the analyzers, findings or event capture, which feed neither) produces byte-identical trace and report"},
	{"trace_hash", []string{"hash"},
		"sha256 of the Chrome trace bytes equals the pinned golden hash (skipped under -smoke)"},
	{"report_hash", []string{"hash"},
		"sha256 of the run-report JSON equals the pinned golden hash (skipped under -smoke)"},
	{"duration", []string{"max"},
		"the run's virtual wall time must not exceed max"},
	{"time_resolved", []string{"metric", "phase", "window", "from", "to", "min_eff", "max_eff", "tol_eff"},
		"a windowed efficiency metric must stay inside [min_eff, max_eff] over [from, to) (skipped under -smoke)"},
	{"finding", []string{"kind", "scope", "min_severity"},
		"the diagnosis engine must emit a finding of kind, at severity >= min_severity, whose scope contains scope"},
	{"finding_absent", []string{"kind", "scope", "min_severity"},
		"the diagnosis engine must not emit a matching finding"},
}

// knownChecks is the validation vocabulary, derived from the doc
// table so the two cannot disagree.
var knownChecks = func() []string {
	names := make([]string, len(checkDocs))
	for i, d := range checkDocs {
		names[i] = d.Name
	}
	return names
}()

// Checks returns the assertion taxonomy (a copy — callers may not
// mutate the source table).
func Checks() []CheckDoc {
	out := make([]CheckDoc, len(checkDocs))
	copy(out, checkDocs)
	return out
}

// WriteChecks renders the taxonomy and the closed vocabularies its
// fields draw from (cmd/scenario -list-checks).
func WriteChecks(w io.Writer) error {
	tw := &errWriter{w: w}
	tw.printf("Assertion checks (scenario assert: entries):\n\n")
	for _, d := range checkDocs {
		fields := "no parameters"
		if len(d.Fields) > 0 {
			fields = strings.Join(d.Fields, ", ")
		}
		tw.printf("  %-15s %s\n", d.Name, d.Summary)
		tw.printf("  %-15s fields: %s\n\n", "", fields)
	}
	tw.printf("Vocabularies:\n\n")
	tw.printf("  error:          %s\n", strings.Join(sortedKeys(errorNames), ", "))
	tw.printf("  category:       %s\n", strings.Join(sortedKeys(blameCategories), ", "))
	tw.printf("  metric:         %s\n", strings.Join(timeres.MetricNames(), ", "))
	tw.printf("  kind (finding): %s\n", strings.Join(diagnose.AnalyzeKinds(), ", "))
	tw.printf("  min_severity:   %s, %s, %s\n", diagnose.SevInfo, diagnose.SevWarn, diagnose.SevCritical)
	return tw.err
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// errWriter folds per-line write errors into one.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}
