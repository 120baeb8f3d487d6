// Package diagnose is the automated diagnosis engine over the
// observability artifacts the rest of the stack produces: it consumes
// a run's blame profile (internal/profile), its time-resolved
// efficiency snapshot (internal/timeres) and the run-level evidence a
// driver or the scenario engine can attach (per-rank retransmit
// counts, structured errors, the declared fault schedule, the progress
// mode), and emits a ranked, schema-versioned list of structured
// findings — straggler ranks, retransmit storms, progress starvation,
// phase collapse, serialization hotspots, idle-tail imbalance. Each
// finding names its kind, a severity, a scope (rank / site / window
// range), the metric evidence it was derived from, a suspected cause
// and a suggested knob, so the framework answers "why was this run
// slow" instead of leaving a human to read tables.
//
// Diagnosis is deterministic: the same artifacts produce byte-identical
// findings JSON (every float is rounded before it is stored, findings
// sort by a total order), and every evidence value is re-derivable
// from the artifact it cites — the tests recompute them.
//
// The same package also hosts the run-to-run differential profiler
// (diff.go) ovlp ovldiff builds on.
package diagnose

import (
	"fmt"
	"sort"
	"time"

	"ovlp/internal/profile"
	"ovlp/internal/timeres"
)

// Schema versions the findings JSON. Bump it whenever a field changes
// meaning, so stale golden files fail loudly instead of drifting.
const Schema = 1

// Severity levels, weakest first. The JSON carries the string form.
const (
	SevInfo     = "info"
	SevWarn     = "warn"
	SevCritical = "critical"
)

// SeverityRank orders severities for ranking and min_severity checks:
// info < warn < critical. Unknown strings rank below info.
func SeverityRank(s string) int {
	switch s {
	case SevInfo:
		return 1
	case SevWarn:
		return 2
	case SevCritical:
		return 3
	}
	return 0
}

// Finding kinds. Kinds() lists them for validation messages.
const (
	KindStraggler     = "straggler-rank"
	KindRetransStorm  = "retransmit-storm"
	KindStarvation    = "progress-starvation"
	KindPhaseCollapse = "phase-collapse"
	KindSerHotspot    = "serialization-hotspot"
	KindIdleTail      = "idle-tail"
	// Recovery kinds, fed by the fault-tolerant runner's evidence.
	KindRankFailure  = "rank-failure"
	KindSlowRecovery = "slow-recovery"
	KindCkptOverhead = "checkpoint-overhead"
	// Diff-only kinds (emitted by Diff, never by Analyze).
	KindGapRegression  = "gap-regression"
	KindWallRegression = "wall-regression"
	KindEffRegression  = "efficiency-regression"
	KindImprovement    = "improvement"
)

// AnalyzeKinds returns the kinds Analyze itself can emit — the
// diff-only kinds excluded. The scenario engine validates `finding`
// assertions against this list: asserting a kind only Diff produces
// would never fire.
func AnalyzeKinds() []string {
	return []string{
		KindStraggler, KindRetransStorm, KindStarvation, KindPhaseCollapse,
		KindSerHotspot, KindIdleTail,
		KindRankFailure, KindSlowRecovery, KindCkptOverhead,
	}
}

// Scope pins a finding to the place in the run it explains. Unset
// fields mean "whole run" on that axis. Site is "region/op", matching
// the profiler's call-site naming.
type Scope struct {
	Rank   *int   `json:"rank,omitempty"`
	Site   string `json:"site,omitempty"`
	Window *int   `json:"window,omitempty"`
	// FromNS/ToNS bound the virtual-time interval the finding covers
	// (both zero = whole run).
	FromNS int64 `json:"from_ns,omitempty"`
	ToNS   int64 `json:"to_ns,omitempty"`
}

func (s Scope) String() string {
	out := ""
	if s.Rank != nil {
		out += fmt.Sprintf("rank %d", *s.Rank)
	}
	if s.Site != "" {
		if out != "" {
			out += " "
		}
		out += "site " + s.Site
	}
	if s.Window != nil {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("window %d", *s.Window)
	}
	if s.ToNS > 0 {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("@ %v..%v", time.Duration(s.FromNS), time.Duration(s.ToNS))
	}
	if out == "" {
		out = "run"
	}
	return out
}

// Evidence is one metric the finding was derived from. Value is
// rounded to four decimals before storage so the JSON is
// byte-deterministic; Threshold is the rule's trip point (zero when
// the metric is descriptive rather than gating).
type Evidence struct {
	Metric    string  `json:"metric"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold,omitempty"`
	Unit      string  `json:"unit,omitempty"`
}

// Finding is one diagnosed condition.
type Finding struct {
	Kind     string `json:"kind"`
	Severity string `json:"severity"`
	// Score ranks findings of equal severity (larger = worse); its
	// meaning is rule-specific (a share, an efficiency deficit).
	Score    float64    `json:"score"`
	Scope    Scope      `json:"scope"`
	Summary  string     `json:"summary"`
	Cause    string     `json:"suspected_cause"`
	Knob     string     `json:"suggested_knob,omitempty"`
	Evidence []Evidence `json:"evidence"`
}

// Report is the engine's complete output, findings ranked most severe
// first.
type Report struct {
	Schema   int       `json:"schema"`
	Findings []Finding `json:"findings"`
}

// Interval is one declared fault-active window (a chaos-schedule
// entry), used to tie efficiency cliffs to their cause. End zero means
// "until the run ends".
type Interval struct {
	Label      string
	Start, End time.Duration
}

// Input is the evidence Analyze consumes. Profile and TimeRes are each
// optional — rules that need a missing artifact simply do not fire —
// but a fully wired caller (the scenario engine, the drivers' -diagnose)
// provides both.
type Input struct {
	Profile  *profile.Profile
	TimeRes  *timeres.Snapshot
	Duration time.Duration
	Procs    int
	// Retransmits counts retransmitted+reposted attempts per rank
	// (optional; sharpens straggler/storm causality).
	Retransmits []int
	// Errors holds per-rank structured error strings ("" = clean).
	Errors []string
	// ProgressMode is the run's progress engine ("manual", "piggyback",
	// "thread", or "" when unknown).
	ProgressMode string
	// Faults lists the declared fault-active intervals, so cliffs can
	// be pinned to them.
	Faults []Interval
	// Crashes lists the declared crash-stop rank failures, so recovery
	// findings can name the dead ranks and their kill times.
	Crashes []Crash
	// Recovery carries the fault-tolerant runner's outcome summary (nil
	// when the run was not fault-tolerant).
	Recovery *Recovery
}

// Crash is one declared crash-stop failure.
type Crash struct {
	Rank int
	At   time.Duration
}

// Recovery distills a fault-tolerant run's outcome (cluster.FTResult)
// to what diagnosis needs.
type Recovery struct {
	Mode          string // "shrink-continue" or "checkpoint-restart"
	Epochs        int
	Failed        []int
	Survivors     int
	Checkpoints   int
	ReplayedSteps int
	Completed     bool
}

// Rule thresholds, exported so DESIGN.md and the tests share one
// source of truth.
const (
	// StragglerLB: a window whose load balance falls below this is
	// collapsed; the rank with the least compute in it is the suspect.
	StragglerLB = 0.5
	// StragglerMinWindows: a rank must be the suspect in at least this
	// many collapsed windows (and in at least half of them) to be named.
	StragglerMinWindows = 2
	// StormShare / StarveShare: the blame share (of the total bound
	// gap) at which fault-retransmit / progress findings fire.
	StormShare  = 0.20
	StarveShare = 0.25
	// CriticalShare upgrades a share-based finding to critical.
	CriticalShare = 0.50
	// CollapseTE: a window whose transfer efficiency falls below this,
	// while the run median stays above CollapseMedianTE, is a cliff.
	CollapseTE       = 0.30
	CollapseMedianTE = 0.50
	// SerHotspotFrac: windows whose serialization-wait fraction of
	// rank-time exceeds this form a hotspot.
	SerHotspotFrac = 0.35
	// IdleTailFrac / IdleTailSpread: trailing windows with at least
	// this idle fraction and at least this max−min per-rank idle-share
	// spread are an imbalanced tail.
	IdleTailFrac   = 0.40
	IdleTailSpread = 0.30
	// RecoveryShare: the detect+agree blame share of the gap at which a
	// slow-recovery finding fires.
	RecoveryShare = 0.15
	// CkptShare: the rollback+recompute blame share at which a
	// checkpoint-overhead finding fires.
	CkptShare = 0.15
)

// Analyze runs every diagnosis rule over the input and returns the
// ranked report. It never fails: missing artifacts just silence the
// rules that need them, so callers can diagnose partial evidence.
func Analyze(in Input) *Report {
	var fs []Finding
	fs = append(fs, stragglerFindings(&in)...)
	fs = append(fs, blameShareFindings(&in)...)
	fs = append(fs, phaseCollapseFindings(&in)...)
	fs = append(fs, serHotspotFindings(&in)...)
	fs = append(fs, idleTailFindings(&in)...)
	fs = append(fs, rankFailureFindings(&in)...)
	fs = append(fs, slowRecoveryFindings(&in)...)
	fs = append(fs, ckptOverheadFindings(&in)...)
	return &Report{Schema: Schema, Findings: rank(fs)}
}

// Explain summarizes a profile's bound gap in one sentence: the
// dominant blame cause, its share of the gap, and the hottest site
// under that cause. Empty when the profile carries no gap to explain
// — callers (ovlp benchgate -explain) print it verbatim next to the
// violation that triggered the diagnosis.
func Explain(p *profile.Profile) string {
	if p == nil || p.Totals.Gap <= 0 {
		return ""
	}
	names, vals := p.Totals.Blame.Columns()
	best := 0
	for i := range vals {
		if vals[i] > vals[best] {
			best = i
		}
	}
	if vals[best] <= 0 {
		return ""
	}
	s := fmt.Sprintf("%.1f%% of the %v bound gap is %s",
		100*frac(vals[best], p.Totals.Gap), p.Totals.Gap, names[best])
	site, _ := worstSite(p, func(b profile.Blame) time.Duration {
		_, vs := b.Columns()
		return vs[best]
	})
	if site != "" {
		s += ", hottest at " + site
	}
	return s
}

// rank orders findings most severe first with a deterministic total
// order: severity desc, score desc, kind asc, scope string asc.
func rank(fs []Finding) []Finding {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := &fs[i], &fs[j]
		if ra, rb := SeverityRank(a.Severity), SeverityRank(b.Severity); ra != rb {
			return ra > rb
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Scope.String() < b.Scope.String()
	})
	if fs == nil {
		fs = []Finding{}
	}
	return fs
}

// round4 rounds to four decimals — the only float precision the JSON
// ever carries, so re-derived evidence compares exactly.
func round4(f float64) float64 {
	if f < 0 {
		return -round4(-f)
	}
	return float64(int64(f*10000+0.5)) / 10000
}

// shareSeverity maps a blame share to warn/critical.
func shareSeverity(share float64) string {
	if share >= CriticalShare {
		return SevCritical
	}
	return SevWarn
}

// faultAt returns the declared fault interval overlapping [lo, hi), if
// any (first by schedule order), for cause attribution.
func faultAt(in *Input, lo, hi time.Duration) (Interval, bool) {
	for _, iv := range in.Faults {
		end := iv.End
		if end <= 0 {
			end = in.Duration
			if end <= 0 {
				end = hi
			}
		}
		if iv.Start < hi && end > lo {
			return iv, true
		}
	}
	return Interval{}, false
}
