package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ovlp/internal/overlap"
)

// ReportSchema versions the run-report JSON; bump it whenever a field
// changes meaning, so stale golden files fail loudly instead of
// drifting.
const ReportSchema = 1

// RunReport is the deterministic JSON artifact one engine run
// produces — the thing golden files pin and report_hash assertions
// cover. It contains only run observations, never assertion verdicts,
// so the same report is stable whether or not the scenario's
// assertions pass. All collections are slices in fixed order (no
// maps), all durations serialize as strings.
type RunReport struct {
	Schema   int    `json:"schema"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Procs    int    `json:"procs"`
	Smoke    bool   `json:"smoke,omitempty"`

	Duration Dur    `json:"duration"`
	Error    string `json:"error,omitempty"`

	Faults struct {
		Dropped    int `json:"dropped"`
		Duplicated int `json:"duplicated"`
		Jittered   int `json:"jittered"`
		Stalled    int `json:"stalled"`
		Blackholed int `json:"blackholed"`
	} `json:"faults"`

	Total     OverlapSummary `json:"total"`
	Regions   []RegionLine   `json:"regions,omitempty"`
	RankLines []RankLine     `json:"ranks"`

	Blame *BlameLine `json:"blame,omitempty"`

	// Recovery is present only for fault-tolerant runs (the scenario
	// declared crashes or a recovery block), so failure-free goldens
	// are unaffected.
	Recovery *RecoveryLine `json:"recovery,omitempty"`

	TraceHash string `json:"trace_hash"`
}

// RecoveryLine summarizes the fault-tolerant runner's observations.
type RecoveryLine struct {
	Mode          string `json:"mode"`
	Completed     bool   `json:"completed"`
	Epochs        int    `json:"epochs"`
	Failed        []int  `json:"failed,omitempty"`
	Survivors     []int  `json:"survivors,omitempty"`
	Checkpoints   int    `json:"checkpoints,omitempty"`
	ReplayedSteps int    `json:"replayed_steps,omitempty"`
}

// OverlapSummary is the report's view of one overlap.Measures.
type OverlapSummary struct {
	Transfers int     `json:"transfers"`
	Data      Dur     `json:"data_transfer_time"`
	MinOv     Dur     `json:"min_overlapped"`
	MaxOv     Dur     `json:"max_overlapped"`
	MinPct    float64 `json:"min_pct"`
	MaxPct    float64 `json:"max_pct"`
}

// RegionLine is the job-wide aggregate for one monitored region.
type RegionLine struct {
	Name    string         `json:"name"`
	Summary OverlapSummary `json:"summary"`
}

// RankLine is one rank's row: its error (if any), library time,
// reliable-delivery counters and overlap totals.
type RankLine struct {
	Rank        int             `json:"rank"`
	Error       string          `json:"error,omitempty"`
	MPITime     Dur             `json:"mpi_time"`
	Retransmits int             `json:"retransmits"`
	Summary     *OverlapSummary `json:"summary,omitempty"`
}

// BlameLine carries the profiler's job-wide attribution totals in the
// fixed Columns order.
type BlameLine struct {
	Gap        Dur         `json:"gap"`
	Categories []BlameCell `json:"categories"`
}

// BlameCell is one blame category's total.
type BlameCell struct {
	Category string `json:"category"`
	Time     Dur    `json:"time"`
}

func summarize(m overlap.Measures) OverlapSummary {
	return OverlapSummary{
		Transfers: m.Count,
		Data:      Dur(m.DataTransferTime),
		MinOv:     Dur(m.MinOverlapped),
		MaxOv:     Dur(m.MaxOverlapped),
		MinPct:    round2(m.MinPercent()),
		MaxPct:    round2(m.MaxPercent()),
	}
}

// round2 rounds to two decimals so the JSON never carries float noise.
func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}

// buildReport folds a run result into its deterministic report.
func buildReport(rr *RunResult) *RunReport {
	rep := &RunReport{
		Schema:   ReportSchema,
		Scenario: rr.Scenario.Name,
		Seed:     rr.Scenario.Seed,
		Procs:    rr.Procs,
		Smoke:    rr.Opts.Smoke,
		Duration: Dur(rr.Res.Duration),
	}
	if rr.Err != nil {
		rep.Error = rr.Err.Error()
	}
	fs := rr.Res.FaultStats
	rep.Faults.Dropped = fs.Dropped
	rep.Faults.Duplicated = fs.Duplicated
	rep.Faults.Jittered = fs.Jittered
	rep.Faults.Stalled = fs.Stalled
	rep.Faults.Blackholed = fs.Blackholed

	agg := overlap.Aggregate(rr.Res.Reports)
	rep.Total = summarize(agg.Total())
	for _, reg := range agg.Regions {
		if reg.Name == "" || reg.Total.Count == 0 {
			continue
		}
		rep.Regions = append(rep.Regions, RegionLine{Name: reg.Name, Summary: summarize(reg.Total)})
	}

	for rank := 0; rank < rr.Procs; rank++ {
		line := RankLine{Rank: rank}
		if rank < len(rr.Res.MPITimes) {
			line.MPITime = Dur(rr.Res.MPITimes[rank])
		}
		if rank < len(rr.Res.RelStats) {
			line.Retransmits = rr.Res.RelStats[rank].Retransmits
		}
		if rank < len(rr.Res.RankErrors) && rr.Res.RankErrors[rank] != nil {
			line.Error = rr.Res.RankErrors[rank].Error()
		}
		if rank < len(rr.Res.Reports) && rr.Res.Reports[rank] != nil {
			s := summarize(rr.Res.Reports[rank].Total())
			line.Summary = &s
		}
		rep.RankLines = append(rep.RankLines, line)
	}

	if ft := rr.FT; ft != nil {
		rep.Recovery = &RecoveryLine{
			Mode:          rr.c.ft.Mode.String(),
			Completed:     ft.Completed,
			Epochs:        ft.Epochs,
			Failed:        ft.Failed,
			Survivors:     ft.Survivors,
			Checkpoints:   ft.Checkpoints,
			ReplayedSteps: ft.ReplayedSteps,
		}
	}

	if rr.Profile != nil {
		bl := &BlameLine{Gap: Dur(rr.Profile.Totals.Gap)}
		names, vals := rr.Profile.Totals.Blame.Columns()
		for i, n := range names {
			bl.Categories = append(bl.Categories, BlameCell{Category: n, Time: Dur(vals[i])})
		}
		rep.Blame = bl
	}
	rep.TraceHash = rr.TraceHash
	return rep
}

func (r *RunReport) encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteText renders a human-readable summary of the run and its
// assertion verdicts — what ovlp scenario prints per scenario.
func WriteText(w io.Writer, rr *RunResult, violations []Violation) {
	rep := buildReport(rr)
	status := "PASS"
	if len(violations) > 0 {
		status = "FAIL"
	}
	fmt.Fprintf(w, "scenario %-24s %s  procs %d  seed %d  t=%v\n",
		rep.Scenario, status, rep.Procs, rep.Seed, time.Duration(rep.Duration))
	fmt.Fprintf(w, "  overlap: min %.1f%% max %.1f%% over %d transfers (%v data)\n",
		rep.Total.MinPct, rep.Total.MaxPct, rep.Total.Transfers, time.Duration(rep.Total.Data))
	if fs := rep.Faults; fs.Dropped+fs.Duplicated+fs.Jittered+fs.Stalled+fs.Blackholed > 0 {
		fmt.Fprintf(w, "  faults:  dropped %d dup %d jitter %d stalled %d blackholed %d\n",
			fs.Dropped, fs.Duplicated, fs.Jittered, fs.Stalled, fs.Blackholed)
	}
	if rep.Error != "" {
		fmt.Fprintf(w, "  error:   %s\n", rep.Error)
	}
	fmt.Fprintf(w, "  hashes:  trace %s  report %s\n", short(rr.TraceHash), short(rr.ReportHash))
	for _, sk := range rr.Skips {
		fmt.Fprintf(w, "  SKIP %s: %s\n", sk.Check, sk.Reason)
	}
	for _, v := range violations {
		fmt.Fprintf(w, "  VIOLATION %s: expected %s, observed %s\n", v.Check, v.Expected, v.Observed)
	}
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
