package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"ovlp/internal/diagnose"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/overlap/oracle"
	"ovlp/internal/vtime"
)

// Violation is one failed assertion, phrased so the failure output
// names the expectation and the observation side by side.
type Violation struct {
	Scenario string
	Check    string
	Expected string
	Observed string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: expected %s, observed %s", v.Scenario, v.Check, v.Expected, v.Observed)
}

// Skip is one assertion Evaluate deliberately did not check, with the
// named reason. A skip is not a violation — the run mode makes the
// check meaningless, not failed — but it is recorded rather than
// silently dropped so the output shows which guarantees were actually
// exercised.
type Skip struct {
	Scenario string
	Check    string
	Reason   string
}

func (s Skip) String() string {
	return fmt.Sprintf("%s: %s: %s", s.Scenario, s.Check, s.Reason)
}

// The named skip reasons. Byte-exact checks cannot hold when the run
// is shrunk (-smoke) or timed by the wall clock (-backend real).
const (
	skipSmokeBytes    = "smoke run: a shrunk run's bytes legitimately differ from the full-size golden"
	skipSmokeTimeRes  = "smoke run: a shrunk run's windows legitimately differ from the full-size run's"
	skipRealClockHash = "real-clock run: wall-clock timestamps are nondeterministic, so byte-exact hashes cannot hold"
	skipRealClockRun  = "real-clock run: wall-clock scheduling is nondeterministic, so a rerun is not byte-identical"
)

// Evaluate checks every assertion of the run's scenario and returns
// the violations (empty means the scenario passes). A scenario with
// no explicit "error" assertion implicitly asserts the run finished
// cleanly: an unexpected run error is itself a violation. Assertions
// the run mode makes meaningless (hash checks under -smoke or on the
// real clock) are recorded in rr.Skips with a named reason rather
// than silently passed over.
func Evaluate(rr *RunResult) []Violation {
	s := rr.Scenario
	var out []Violation
	add := func(check, expected, observed string) {
		out = append(out, Violation{Scenario: s.Name, Check: check, Expected: expected, Observed: observed})
	}
	rr.Skips = nil // idempotent across re-evaluation
	skip := func(check, reason string) {
		rr.Skips = append(rr.Skips, Skip{Scenario: s.Name, Check: check, Reason: reason})
	}

	expectsError := false
	for i := range s.Assertions {
		if s.Assertions[i].Check == "error" {
			expectsError = true
		}
	}
	if !expectsError && rr.Err != nil {
		add("clean-run", "run finishes without error", rr.Err.Error())
	}

	for i := range s.Assertions {
		a := &s.Assertions[i]
		switch a.Check {
		case "overlap":
			checkOverlap(rr, a, add)
		case "blame_share":
			checkBlameShare(rr, a, add)
		case "error":
			if msg := matchError(rr, a, true); msg != "" {
				add("error", describeErrorWant(a), msg)
			}
		case "error_absent":
			if msg := matchError(rr, a, false); msg != "" {
				add("error_absent", "no "+describeErrorWant(a), msg)
			}
		case "bounds_valid":
			checkBoundsValid(rr, add)
		case "conservation":
			checkConservation(rr, add)
		case "determinism":
			if rr.realClock() {
				skip("determinism", skipRealClockRun)
				continue
			}
			checkDeterminism(rr, add)
		case "trace_hash":
			if rr.realClock() {
				skip("trace_hash", skipRealClockHash)
				continue
			}
			if rr.Opts.Smoke {
				skip("trace_hash", skipSmokeBytes)
				continue
			}
			if rr.TraceHash != a.Hash {
				add("trace_hash", a.Hash, rr.TraceHash)
			}
		case "report_hash":
			if rr.realClock() {
				skip("report_hash", skipRealClockHash)
				continue
			}
			if rr.Opts.Smoke {
				skip("report_hash", skipSmokeBytes)
				continue
			}
			if rr.ReportHash != a.Hash {
				add("report_hash", a.Hash, rr.ReportHash)
			}
		case "duration":
			if rr.Res.Duration > a.Max.D() {
				add("duration", fmt.Sprintf("virtual time <= %v", a.Max.D()),
					rr.Res.Duration.String())
			}
		case "time_resolved":
			if rr.Opts.Smoke {
				skip("time_resolved", skipSmokeTimeRes)
				continue
			}
			checkTimeResolved(rr, a, add)
		case "finding":
			checkFinding(rr, a, true, add)
		case "finding_absent":
			checkFinding(rr, a, false, add)
		}
	}
	return out
}

// checkOverlap asserts the true overlap percentage of the scoped
// measures lies in [min_pct, max_pct]: since the framework reports
// bounds that bracket the truth, the assertion fails only when even
// the optimistic bound is below min_pct (or the pessimistic bound
// above max_pct), beyond the tolerance.
func checkOverlap(rr *RunResult, a *Assertion, add func(check, expected, observed string)) {
	m, scope, ok := scopedMeasures(rr, a)
	if !ok {
		add("overlap", fmt.Sprintf("measures for %s", scope), "no instrumentation data")
		return
	}
	if m.Count == 0 {
		add("overlap", fmt.Sprintf("transfers in %s", scope), "0 transfers")
		return
	}
	obs := fmt.Sprintf("%s overlap bounds [%.1f%%, %.1f%%]", scope, m.MinPercent(), m.MaxPercent())
	if a.MinPct != nil && m.MaxPercent() < *a.MinPct-a.TolPct {
		add("overlap", fmt.Sprintf("overlap >= %.1f%% (tol %.1f)", *a.MinPct, a.TolPct), obs)
	}
	if a.MaxPct != nil && m.MinPercent() > *a.MaxPct+a.TolPct {
		add("overlap", fmt.Sprintf("overlap <= %.1f%% (tol %.1f)", *a.MaxPct, a.TolPct), obs)
	}
}

func scopedMeasures(rr *RunResult, a *Assertion) (overlap.Measures, string, bool) {
	scope := "total"
	var rep *overlap.Report
	if a.Rank != nil {
		scope = fmt.Sprintf("rank %d", *a.Rank)
		if *a.Rank >= len(rr.Res.Reports) || rr.Res.Reports[*a.Rank] == nil {
			return overlap.Measures{}, scope, false
		}
		rep = rr.Res.Reports[*a.Rank]
	} else {
		rep = overlap.Aggregate(rr.Res.Reports)
	}
	if a.Region != "" {
		scope += " region " + a.Region
		reg := rep.Region(a.Region)
		if reg == nil {
			return overlap.Measures{}, scope, false
		}
		return reg.Total, scope, true
	}
	return rep.Total(), scope, true
}

func checkBlameShare(rr *RunResult, a *Assertion, add func(check, expected, observed string)) {
	if rr.Profile == nil {
		add("blame_share", "an offline profile", "profile analysis unavailable for this run")
		return
	}
	names, vals := rr.Profile.Totals.Blame.Columns()
	gap := rr.Profile.Totals.Gap
	var share float64
	for i, n := range names {
		if n == a.Category {
			if gap > 0 {
				share = 100 * float64(vals[i]) / float64(gap)
			}
		}
	}
	obs := fmt.Sprintf("%s share %.1f%% of %v gap", a.Category, share, gap)
	if a.MinShare != nil && share < *a.MinShare {
		add("blame_share", fmt.Sprintf("%s share >= %.1f%%", a.Category, *a.MinShare), obs)
	}
	if a.MaxShare != nil && share > *a.MaxShare {
		add("blame_share", fmt.Sprintf("%s share <= %.1f%%", a.Category, *a.MaxShare), obs)
	}
}

func describeErrorWant(a *Assertion) string {
	where := "on any rank"
	if a.Rank != nil {
		where = fmt.Sprintf("on rank %d", *a.Rank)
	}
	return fmt.Sprintf("%s error %s", a.Error, where)
}

// matchError checks the expected-error (want=true) or proven-absent
// (want=false) condition and returns "" on success or the observation
// text on failure.
func matchError(rr *RunResult, a *Assertion, want bool) string {
	matched, found := findError(rr, a)
	if want {
		if matched {
			return ""
		}
		if found != "" {
			return "different error: " + found
		}
		return "run finished cleanly"
	}
	if !matched {
		return ""
	}
	return found
}

// findError reports whether the expected error kind is present in the
// assertion's scope, plus a description of whatever error was seen.
func findError(rr *RunResult, a *Assertion) (matched bool, seen string) {
	kindMatch := func(err error) bool {
		if err == nil {
			return false
		}
		switch a.Error {
		case "timeout":
			return errors.Is(err, mpi.ErrTimeout)
		case "peer_unreachable":
			return errors.Is(err, mpi.ErrPeerUnreachable)
		case "deadlock":
			var de *vtime.DeadlockError
			return errors.As(err, &de)
		default: // "any"
			return true
		}
	}
	if a.Rank != nil {
		var err error
		if *a.Rank < len(rr.Res.RankErrors) {
			err = rr.Res.RankErrors[*a.Rank]
		}
		if err != nil {
			seen = fmt.Sprintf("rank %d: %v", *a.Rank, err)
		}
		return kindMatch(err), seen
	}
	if rr.Err != nil {
		seen = rr.Err.Error()
	}
	if kindMatch(rr.Err) {
		return true, seen
	}
	for rank, err := range rr.Res.RankErrors {
		if kindMatch(err) {
			return true, fmt.Sprintf("rank %d: %v", rank, err)
		}
	}
	return false, seen
}

// checkBoundsValid runs the independent bounds oracle (overlap/oracle)
// over every rank's raw event stream: totals equal to the monitor's
// report, and min ≤ true overlap ≤ max for every transfer the fabric
// double-stamped, within the library-view tolerance. Under a chaos
// schedule that additionally absorbs injected jitter and — for
// bandwidth-degraded windows — the stretch of the physical transfer
// beyond its calibrated time, since calibration describes the healthy
// network the instrumentation was characterized on.
func checkBoundsValid(rr *RunResult, add func(check, expected, observed string)) {
	if rr.Res.Calib == nil {
		add("bounds_valid", "a calibrated instrumented run", "no calibration table in result")
		return
	}
	plan, err := rr.Scenario.FaultPlan()
	if err != nil {
		add("bounds_valid", "compilable chaos schedule", err.Error())
		return
	}
	truth := oracle.Truth(rr.Res.Transfers)
	cost := fabric.DefaultCostModel()
	eps := cost.LinkLatency + cost.DMAStartup + 2*time.Microsecond + maxJitter(plan)
	slack := func(wire, xfer time.Duration) (lower, upper time.Duration) {
		// 5% calibration slack plus, under bandwidth degradation, the
		// stretch of the wire interval beyond the calibrated estimate.
		fudge := eps + wire/20 + max(0, wire-xfer)
		return fudge, fudge
	}
	for rank := 0; rank < rr.Procs; rank++ {
		var rep *overlap.Report
		if rank < len(rr.Res.Reports) {
			rep = rr.Res.Reports[rank]
		}
		if rep == nil && len(rr.Events[rank]) == 0 {
			continue // rank wedged before finalize: nothing to replay
		}
		var bad []string
		if rep == nil {
			bad = []string{"no instrumentation report to check bounds against"}
		} else {
			o := oracle.Run(rr.Events[rank], rep.Duration, rr.Res.Calib, 0)
			bad = append(append(o.Violations, o.CheckTotals(rep)...), o.CheckTruth(truth, slack)...)
		}
		if len(bad) > 0 {
			add("bounds_valid", "min <= true overlap <= max per transfer", fmt.Sprintf("rank %d: %s", rank, bad[0]))
			return
		}
	}
}

// maxJitter returns the largest jitter any part of the plan can
// inject (the time-dependent part of the oracle tolerance).
func maxJitter(plan *fabric.FaultPlan) time.Duration {
	if plan == nil {
		return 0
	}
	m := plan.Default.JitterMax
	for _, lf := range plan.Links {
		if lf.JitterMax > m {
			m = lf.JitterMax
		}
	}
	for i := range plan.Schedule {
		ev := &plan.Schedule[i]
		if ev.Default != nil && ev.Default.JitterMax > m {
			m = ev.Default.JitterMax
		}
		if ev.NodeFaults.JitterMax > m {
			m = ev.NodeFaults.JitterMax
		}
		for _, lf := range ev.Links {
			if lf.JitterMax > m {
				m = lf.JitterMax
			}
		}
	}
	return m
}

// checkConservation asserts the profiler's attribution conserves the
// quantity it explains: the job-wide attributed gap equals the
// overlap report's max−min bound gap exactly, and the per-category
// blame sums back to it.
func checkConservation(rr *RunResult, add func(check, expected, observed string)) {
	if rr.Profile == nil {
		add("conservation", "an offline profile", "profile analysis unavailable for this run")
		return
	}
	agg := overlap.Aggregate(rr.Res.Reports).Total()
	repGap := agg.MaxOverlapped - agg.MinOverlapped
	tot := rr.Profile.Totals
	if tot.Gap != repGap {
		add("conservation", fmt.Sprintf("attributed gap == report gap %v", repGap),
			fmt.Sprintf("attributed gap %v", tot.Gap))
	}
	if bt := tot.Blame.Total(); bt != tot.Gap {
		add("conservation", fmt.Sprintf("blame categories sum to gap %v", tot.Gap),
			fmt.Sprintf("categories sum to %v", bt))
	}
}

// checkTimeResolved asserts the minimum of the named efficiency over
// the scoped windows (or phases) stays inside [min_eff, max_eff]
// within tolerance. An empty scope is itself a violation: an assertion
// that selects nothing proves nothing.
func checkTimeResolved(rr *RunResult, a *Assertion, add func(check, expected, observed string)) {
	scope := "windows"
	if a.Phase != "" {
		scope = a.Phase + " phases"
	}
	if a.From > 0 || a.To > 0 {
		to := "end"
		if a.To > 0 {
			to = a.To.D().String()
		}
		scope += fmt.Sprintf(" in [%v, %s)", a.From.D(), to)
	}
	if rr.TimeRes == nil {
		add("time_resolved", "time-resolved metrics for the run", "analyzer produced no snapshot")
		return
	}
	min, n, err := rr.TimeRes.MinMetric(a.Metric, a.From.D(), a.To.D(), a.Phase)
	if err != nil {
		add("time_resolved", "a known metric", err.Error())
		return
	}
	if n == 0 {
		add("time_resolved", fmt.Sprintf("at least one of the %s", scope), "scope selected no slices")
		return
	}
	obs := fmt.Sprintf("min %s %.4f over %d %s", a.Metric, min, n, scope)
	if a.MinEff != nil && min < *a.MinEff-a.TolEff {
		add("time_resolved", fmt.Sprintf("min %s >= %.4f (tol %.4f)", a.Metric, *a.MinEff, a.TolEff), obs)
	}
	if a.MaxEff != nil && min > *a.MaxEff+a.TolEff {
		add("time_resolved", fmt.Sprintf("min %s <= %.4f (tol %.4f)", a.Metric, *a.MaxEff, a.TolEff), obs)
	}
}

// checkFinding asserts the diagnosis engine emitted (want=true) or did
// not emit (want=false) a finding of the assertion's kind, at severity
// >= min_severity, whose scope string contains the scope substring
// when one is given. Unlike the hash checks this runs under -smoke:
// the diagnosed condition is structural and the corpus scenarios are
// written to exhibit it at both sizes.
func checkFinding(rr *RunResult, a *Assertion, want bool, add func(check, expected, observed string)) {
	check := "finding"
	if !want {
		check = "finding_absent"
	}
	expected := fmt.Sprintf("finding %s", a.Kind)
	if a.Scope != "" {
		expected += fmt.Sprintf(" scoped to %q", a.Scope)
	}
	if a.MinSeverity != "" {
		expected += " at severity >= " + a.MinSeverity
	}
	if !want {
		expected = "no " + expected
	}
	if rr.Findings == nil {
		add(check, expected, "diagnosis unavailable for this run")
		return
	}
	var match *diagnose.Finding
	for i := range rr.Findings.Findings {
		f := &rr.Findings.Findings[i]
		if f.Kind != a.Kind {
			continue
		}
		if a.Scope != "" && !strings.Contains(f.Scope.String(), a.Scope) {
			continue
		}
		if a.MinSeverity != "" &&
			diagnose.SeverityRank(f.Severity) < diagnose.SeverityRank(a.MinSeverity) {
			continue
		}
		match = f
		break
	}
	if want && match == nil {
		add(check, expected, describeFindings(rr.Findings))
	}
	if !want && match != nil {
		add(check, expected, fmt.Sprintf("[%s] %s", match.Severity, match.Summary))
	}
}

// describeFindings summarizes what the engine did emit, so a failed
// `finding` assertion names the alternatives seen.
func describeFindings(rep *diagnose.Report) string {
	if len(rep.Findings) == 0 {
		return "no findings"
	}
	kinds := make([]string, len(rep.Findings))
	for i, f := range rep.Findings {
		kinds[i] = fmt.Sprintf("%s[%s] %s", f.Kind, f.Severity, f.Scope)
	}
	return "findings: " + strings.Join(kinds, "; ")
}

// checkDeterminism re-executes the scenario in-process and compares
// the two artifacts — same seed, same trace hash, same report bytes.
// The re-run is simulate without the primary run's taps, i.e. the same
// simulation, tracer, export, profile and report builder, minus what
// feeds neither artifact: the Events capture, the time-resolved
// analyzer and the diagnosis engine, and any live sink (a viewer fed
// twice would double-count; it is not part of the determinism domain).
func checkDeterminism(rr *RunResult, add func(check, expected, observed string)) {
	again, _, err := simulate(rr.Scenario, rr.Opts, false)
	if err != nil {
		add("determinism", "a repeatable run", "rerun failed: "+err.Error())
		return
	}
	if again.TraceHash != rr.TraceHash {
		add("determinism", "identical trace hash "+short(rr.TraceHash), "rerun produced "+short(again.TraceHash))
	}
	report, err := encodeReport(again)
	if err != nil {
		add("determinism", "a repeatable run", "rerun failed: "+err.Error())
	} else if !bytes.Equal(report, rr.ReportBytes) {
		add("determinism", "identical report hash "+short(rr.ReportHash), "rerun produced "+short(hashBytes(report)))
	}
}
