package cmdutil

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"ovlp/internal/fabric"
	"ovlp/internal/scenario"
	"ovlp/internal/vtime"
)

// Faults is the shared fault-injection flag state: the legacy knobs
// (-drop/-dup/-jitter/-stall/-fault-seed, now sugar for a one-event
// chaos schedule) plus -scenario, which loads a declarative scenario
// file and uses its chaos schedule, stall list and seed. The two
// sources are mutually exclusive, so a flag typo cannot silently
// half-override a scenario.
type Faults struct {
	// ScenarioPath is the -scenario file ("" = none).
	ScenarioPath string

	seed   int64
	drop   float64
	dup    float64
	jitter time.Duration
	stall  string
}

// RegisterFaults installs the fault-injection flags on fs (the default
// command-line set when fs is nil).
func RegisterFaults(fs *flag.FlagSet) *Faults {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &Faults{}
	fs.Int64Var(&f.seed, "fault-seed", 1, "seed for the fault-injection PRNG (same seed, same run)")
	fs.Float64Var(&f.drop, "drop", 0, "per-packet drop probability on every link [0,1] (sugar for a one-event -scenario chaos schedule)")
	fs.Float64Var(&f.dup, "dup", 0, "per-packet duplication probability on every link [0,1] (sugar for a one-event -scenario chaos schedule)")
	fs.DurationVar(&f.jitter, "jitter", 0, "maximum extra per-packet delivery delay, uniform in [0,jitter) (sugar for a one-event -scenario chaos schedule)")
	fs.StringVar(&f.stall, "stall", "", `DMA stall windows, comma-separated "node@start+dur" (dur may be "forever"), e.g. "1@2ms+500us"`)
	fs.StringVar(&f.ScenarioPath, "scenario", "",
		"load the chaos schedule (chaos, stalls, seed) from this scenario file instead of the legacy fault flags")
	return f
}

// Plan builds the fault plan from whichever source was used: the
// scenario file's compiled chaos schedule, or the legacy flags' sugar
// plan. Nil when neither asked for faults, so callers can hand the
// result straight to cluster.Config.Faults without changing fault-free
// behaviour.
func (f *Faults) Plan() (*fabric.FaultPlan, error) {
	legacy, err := f.legacyPlan()
	if err != nil {
		return nil, err
	}
	if f.ScenarioPath == "" {
		return legacy, nil
	}
	if legacy != nil {
		return nil, fmt.Errorf("-scenario and the legacy fault flags (-drop/-dup/-jitter/-stall) are mutually exclusive")
	}
	s, err := scenario.LoadFile(f.ScenarioPath)
	if err != nil {
		return nil, err
	}
	return s.FaultPlan()
}

// Seed returns the -fault-seed value.
func (f *Faults) Seed() int64 { return f.seed }

// legacyPlan assembles the legacy flags' FaultPlan, or nil when every
// knob is at rest.
//
// The link knobs (-drop/-dup/-jitter) are deprecated sugar: they
// compile to a single schedule event active from t=0 over every link —
// exactly the plan a one-event scenario file would declare — so the
// legacy flags and the scenario engine share one runtime path. The
// injected faults are bit-for-bit what the old always-on Default
// produced.
func (f *Faults) legacyPlan() (*fabric.FaultPlan, error) {
	p := &fabric.FaultPlan{Seed: f.seed}
	lf := fabric.LinkFaults{
		DropRate:  f.drop,
		DupRate:   f.dup,
		JitterMax: f.jitter,
	}
	if lf != (fabric.LinkFaults{}) {
		p.Schedule = []fabric.FaultEvent{{Label: "faultflag", Default: &lf}}
	}
	if f.stall != "" {
		stalls, err := parseStalls(f.stall)
		if err != nil {
			return nil, err
		}
		p.Stalls = stalls
	}
	if !p.Active() {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseStalls parses a comma-separated list of "node@start+dur" stall
// windows; dur may be "forever" for a permanent blackhole.
func parseStalls(s string) ([]fabric.StallWindow, error) {
	var out []fabric.StallWindow
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := parseStall(part)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func parseStall(s string) (fabric.StallWindow, error) {
	bad := func() (fabric.StallWindow, error) {
		return fabric.StallWindow{}, fmt.Errorf(
			`cmdutil: bad stall %q (want "node@start+dur", e.g. "1@2ms+500us" or "0@1ms+forever")`, s)
	}
	nodeStr, rest, ok := strings.Cut(s, "@")
	if !ok {
		return bad()
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil || node < 0 {
		return bad()
	}
	startStr, durStr, ok := strings.Cut(rest, "+")
	if !ok {
		return bad()
	}
	start, err := time.ParseDuration(startStr)
	if err != nil || start < 0 {
		return bad()
	}
	w := fabric.StallWindow{Node: fabric.NodeID(node), Start: vtime.Time(start)}
	if durStr == "forever" {
		w.End = fabric.Forever
		return w, nil
	}
	dur, err := time.ParseDuration(durStr)
	if err != nil || dur <= 0 {
		return bad()
	}
	w.End = w.Start + vtime.Time(dur)
	return w, nil
}

// CheckFaultNodes rejects a fault plan naming nodes beyond the
// smallest processor count in a sweep, before any simulation starts —
// every run in the sweep has at least that many nodes, so the smallest
// is the binding constraint.
func CheckFaultNodes(plan *fabric.FaultPlan, procs []int) error {
	if len(procs) == 0 {
		return nil
	}
	return plan.CheckNodes(slices.Min(procs))
}

// DescribeFaults renders a plan for a benchmark header line; it
// returns "" for a nil plan so fault-free output stays untouched.
func DescribeFaults(p *fabric.FaultPlan) string {
	if !p.Active() {
		return ""
	}
	parts := []string{fmt.Sprintf("seed %d", p.Seed)}
	lf := p.Default
	sched := p.Schedule
	if len(sched) == 1 && sched[0].At == 0 && sched[0].Clear == 0 &&
		sched[0].Ramp == 0 && sched[0].Default != nil && len(sched[0].Links) == 0 &&
		len(sched[0].Nodes) == 0 {
		// The always-on one-event shape the legacy flags compile to:
		// render it like the old Default so header lines stay stable.
		lf, sched = *sched[0].Default, nil
	}
	if lf.DropRate > 0 {
		parts = append(parts, fmt.Sprintf("drop %.2g", lf.DropRate))
	}
	if lf.DupRate > 0 {
		parts = append(parts, fmt.Sprintf("dup %.2g", lf.DupRate))
	}
	if lf.JitterMax > 0 {
		parts = append(parts, fmt.Sprintf("jitter %v", lf.JitterMax))
	}
	if n := len(sched); n > 0 {
		parts = append(parts, fmt.Sprintf("%d chaos event(s)", n))
	}
	if n := len(p.Stalls); n > 0 {
		parts = append(parts, fmt.Sprintf("%d stall window(s)", n))
	}
	return "faults: " + strings.Join(parts, ", ")
}
