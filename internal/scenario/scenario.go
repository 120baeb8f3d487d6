// Package scenario implements the declarative chaos-scenario engine:
// a scenario file (YAML subset or JSON) names a topology and workload
// mix, a timed chaos schedule — cascading link failures, correlated
// rack outages, bandwidth-degradation ramps, DMA-stall storms, jitter
// spikes — and a set of machine-checkable assertions over the run's
// overlap bounds, blame attribution, structured errors and
// determinism hashes. The engine compiles the schedule onto
// fabric.FaultPlan, runs the workload on a simulated cluster, and
// evaluates every assertion, so a committed corpus of scenarios
// becomes a reproducible robustness regression suite: same seed, same
// bytes, same verdicts.
package scenario

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"ovlp/internal/diagnose"
	"ovlp/internal/fabric"
	"ovlp/internal/timeres"
	"ovlp/internal/vtime"
)

// Dur is a time.Duration that unmarshals from either a duration
// string ("250us", "2ms") or a bare number of nanoseconds, and
// marshals back to the string form scenario files use.
type Dur time.Duration

func (d Dur) D() time.Duration { return time.Duration(d) }

func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", s, err)
		}
		*d = Dur(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("duration must be a string like \"2ms\" or nanoseconds, got %s", b)
	}
	*d = Dur(n)
	return nil
}

// Size is a byte count that unmarshals from a bare integer or a
// string with a K/M binary suffix ("64K", "1M").
type Size int64

func (s Size) N() int { return int(s) }

func (s Size) MarshalJSON() ([]byte, error) {
	switch {
	case s >= 1<<20 && s%(1<<20) == 0:
		return json.Marshal(fmt.Sprintf("%dM", s>>20))
	case s >= 1<<10 && s%(1<<10) == 0:
		return json.Marshal(fmt.Sprintf("%dK", s>>10))
	}
	return json.Marshal(int64(s))
}

// ParseSize reads a non-negative byte count with an optional K/M
// binary suffix, in either case ("64K", "1m", "512").
func ParseSize(str string) (Size, error) {
	str = strings.ToUpper(strings.TrimSpace(str))
	mult := int64(1)
	switch {
	case strings.HasSuffix(str, "M"):
		mult, str = 1<<20, strings.TrimSuffix(str, "M")
	case strings.HasSuffix(str, "K"):
		mult, str = 1<<10, strings.TrimSuffix(str, "K")
	}
	n, err := strconv.ParseInt(str, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q", str)
	}
	return Size(n * mult), nil
}

func (s *Size) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err == nil {
		n, err := ParseSize(str)
		*s = n
		return err
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("size must be an integer or a string like \"64K\", got %s", b)
	}
	*s = Size(n)
	return nil
}

// Scenario is the typed form of one scenario file.
type Scenario struct {
	// Name identifies the scenario in reports and golden files.
	Name string `json:"name"`
	// Seed seeds both the fault-injection PRNG and any randomized
	// workload choices; the whole run is a pure function of it.
	Seed int64 `json:"seed"`
	// Procs is the machine size (one rank per node).
	Procs int `json:"procs"`
	// Deadline bounds virtual time (default 10s): a wedged run comes
	// back as a structured deadlock error instead of hanging.
	Deadline Dur `json:"deadline,omitempty"`
	// Protocol selects the rendezvous flavour: "", "pipelined"
	// (Open MPI-like) or "direct" (MVAPICH2-like).
	Protocol string `json:"protocol,omitempty"`
	// Reliable overrides the retransmission parameters; nil uses the
	// fabric defaults whenever the chaos schedule is active.
	Reliable *ReliableSpec `json:"reliable,omitempty"`
	// Workload is the program the ranks execute.
	Workload Workload `json:"workload"`
	// Chaos is the timed fault schedule (may be empty: a calm run).
	Chaos []ChaosEvent `json:"chaos,omitempty"`
	// Stalls are DMA-stall windows (the NIC-sided fault axis).
	Stalls []Stall `json:"stalls,omitempty"`
	// Crashes are crash-stop rank failures. Declaring any (or a
	// Recovery block) runs the workload under the fault-tolerant runner
	// (cluster.RunFT): survivors detect, agree and recover, and the
	// planned crashes' own rank errors are expected rather than
	// violations.
	Crashes []CrashSpec `json:"crashes,omitempty"`
	// Recovery tunes the recovery policy; nil with Crashes declared
	// means shrink-continue with defaults.
	Recovery *RecoverySpec `json:"recovery,omitempty"`
	// Assertions are checked after the run; any violation makes the
	// scenario fail.
	Assertions []Assertion `json:"assert,omitempty"`
}

// CrashSpec is one declared crash-stop failure: the node's NIC goes
// permanently silent at the given virtual time.
type CrashSpec struct {
	Node int `json:"node"`
	At   Dur `json:"at"`
}

// RecoverySpec tunes cluster.FTOptions for a crash scenario.
type RecoverySpec struct {
	// Mode: "shrink-continue" (default) or "checkpoint-restart".
	Mode string `json:"mode,omitempty"`
	// CheckpointEvery is the step interval between checkpoints in
	// checkpoint-restart mode (0 = every step).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// MinProcs makes the run fail when an agreement leaves fewer
	// active ranks (0 = continue down to one).
	MinProcs int `json:"min_procs,omitempty"`
	// Heartbeat overrides the failure detector's ping period.
	Heartbeat Dur `json:"heartbeat,omitempty"`
}

// ReliableSpec mirrors fabric.ReliableParams for scenario files.
type ReliableSpec struct {
	Timeout Dur `json:"timeout,omitempty"`
	// MaxRetries: 0 uses the default budget; any negative value means
	// the first timeout is fatal (mapped to fabric.NoRetries — an
	// unlimited budget would only ever end at the deadline, so
	// scenarios cannot express it).
	MaxRetries int     `json:"max_retries,omitempty"`
	Backoff    float64 `json:"backoff,omitempty"`
}

// Workload declares the program every rank runs.
type Workload struct {
	// Kind: "exchange" (ring/pair nonblocking exchange with inserted
	// computation, monitored region "exchange"), "nas" (an NPB
	// benchmark), "coll" (a compute-overlapped nonblocking collective,
	// as ovlp collstudy runs), "micro" (the paper's two-rank
	// microbenchmark, micro.Pair) or "comb" (the two-rank COMB
	// exchange, comb.Exchange).
	Kind string `json:"kind"`

	// exchange parameters.
	Size    Size `json:"size,omitempty"`
	Reps    int  `json:"reps,omitempty"`
	Compute Dur  `json:"compute,omitempty"`

	// micro parameters (Size, Reps and Compute above also apply): the
	// call combination, "isend-recv", "send-irecv" or "isend-irecv".
	Pair string `json:"pair,omitempty"`

	// comb parameters (Size and Reps above also apply): the method,
	// "post-work-wait" or "polling", and the work per iteration.
	Method string `json:"method,omitempty"`
	Work   Dur    `json:"work,omitempty"`

	// nas parameters.
	Bench string `json:"bench,omitempty"`
	Class string `json:"class,omitempty"`
	Iters int    `json:"iters,omitempty"`

	// coll parameters (Size, Reps and Compute above also apply).
	Op       string `json:"op,omitempty"`
	Algo     string `json:"algo,omitempty"`
	Progress string `json:"progress,omitempty"`
	Chunk    Size   `json:"chunk,omitempty"`
	Polls    int    `json:"polls,omitempty"`
}

// ChaosEvent is one timed entry of the chaos schedule. It compiles to
// a fabric.FaultEvent: active from At (cleared at Clear, ramping over
// Ramp), scoped to the whole fabric, to a correlated node group
// (Nodes — a rack or switch), or to explicit directed links.
type ChaosEvent struct {
	Label string `json:"label,omitempty"`
	At    Dur    `json:"at"`
	Clear Dur    `json:"clear,omitempty"`
	Ramp  Dur    `json:"ramp,omitempty"`

	// The fault mix while active.
	Drop      float64 `json:"drop,omitempty"`
	Dup       float64 `json:"dup,omitempty"`
	Jitter    Dur     `json:"jitter,omitempty"`
	DropEvery int     `json:"drop_every,omitempty"`
	// Bandwidth is the capacity factor in (0,1]; e.g. 0.25 quarters
	// link bandwidth (0 means "unchanged").
	Bandwidth float64 `json:"bandwidth,omitempty"`

	// Scope: Nodes is a correlated group (every link touching one of
	// them), Links lists directed "src->dst" pairs; both empty means
	// every link.
	Nodes []int    `json:"nodes,omitempty"`
	Links []string `json:"links,omitempty"`
}

// Stall is one DMA-stall window on a node's NIC.
type Stall struct {
	Node  int `json:"node"`
	Start Dur `json:"start"`
	Dur   Dur `json:"dur,omitempty"`
	// Forever blackholes the NIC from Start onward.
	Forever bool `json:"forever,omitempty"`
}

// Assertion is one machine-checkable expectation. Check selects the
// kind; the other fields parameterize it (see DESIGN.md Sec. 4.9 for
// the taxonomy).
type Assertion struct {
	// Check: "overlap", "blame_share", "error", "error_absent",
	// "bounds_valid", "conservation", "determinism", "trace_hash",
	// "report_hash", "duration", "time_resolved", "finding",
	// "finding_absent".
	Check string `json:"check"`

	// overlap: bounds (in percent of data transfer time) the region's
	// measured min/max overlap must fall inside, with tolerance.
	Region string   `json:"region,omitempty"`
	Rank   *int     `json:"rank,omitempty"`
	MinPct *float64 `json:"min_pct,omitempty"`
	MaxPct *float64 `json:"max_pct,omitempty"`
	TolPct float64  `json:"tol_pct,omitempty"`

	// blame_share: the named category's share of the profiler's total
	// attributed gap, in [MinShare, MaxShare] percent.
	Category string   `json:"category,omitempty"`
	MinShare *float64 `json:"min_share,omitempty"`
	MaxShare *float64 `json:"max_share,omitempty"`

	// error / error_absent: a structured error ("timeout",
	// "peer_unreachable", "deadlock", or "any") expected (or proven
	// absent) — on the given rank when Rank is set, anywhere otherwise.
	Error string `json:"error,omitempty"`

	// duration: the run's virtual time must not exceed Max.
	Max Dur `json:"max,omitempty"`

	// trace_hash / report_hash: expected sha256 hex of the Chrome
	// trace bytes / report JSON.
	Hash string `json:"hash,omitempty"`

	// time_resolved: the minimum of Metric (a timeres efficiency:
	// par_eff, load_bal, comm_eff, xfer_eff, ser_eff) over the windows
	// — or the phases of kind Phase — overlapping [From, To) must stay
	// >= MinEff and/or <= MaxEff, within TolEff. To == 0 means the run
	// end. Window sets the analyzer's window length; every
	// time_resolved assertion in a scenario must declare the same one
	// (zero means the default). Skipped under -smoke, like the hash
	// checks: a shrunk run's windows are legitimately different.
	Metric string   `json:"metric,omitempty"`
	Window Dur      `json:"window,omitempty"`
	From   Dur      `json:"from,omitempty"`
	To     Dur      `json:"to,omitempty"`
	Phase  string   `json:"phase,omitempty"`
	MinEff *float64 `json:"min_eff,omitempty"`
	MaxEff *float64 `json:"max_eff,omitempty"`
	TolEff float64  `json:"tol_eff,omitempty"`

	// finding / finding_absent: the diagnosis engine
	// (internal/diagnose) must emit (or must not emit) a finding of
	// Kind, at severity >= MinSeverity ("" means any), whose scope
	// string contains Scope when set ("rank 2", "site exchange/Isend").
	// Unlike the hash checks these run under -smoke too: the diagnosed
	// condition is structural, not byte-exact.
	Kind        string `json:"kind,omitempty"`
	Scope       string `json:"scope,omitempty"`
	MinSeverity string `json:"min_severity,omitempty"`
}

// knownChecks (see checkdoc.go) is derived from the checkDocs table,
// the taxonomy's single source of truth.

// errorNames is the error vocabulary, sorted as -list-checks prints it.
var errorNames = []string{"any", "deadlock", "peer_unreachable", "timeout"}

// Validate checks the scenario's internal consistency — everything
// that can be rejected before a simulation is built. Past the header
// and the assertions, that is compiling it: the run uses what a field
// parses to, so the check and the run cannot disagree.
func (s *Scenario) Validate() error {
	_, err := s.validate(false)
	return err
}

// validate runs the checks compile has no use for — the header and
// the assertions, whose defaults it fills in — then compiles s.
func (s *Scenario) validate(smoke bool) (*compiled, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: name is required")
	}
	if strings.ContainsAny(s.Name, "/ \t") {
		return nil, fmt.Errorf("scenario %s: name must be a file-name-safe token", s.Name)
	}
	if s.Procs < 2 {
		return nil, fmt.Errorf("scenario %s: procs must be at least 2, got %d", s.Name, s.Procs)
	}
	if s.Deadline < 0 {
		return nil, fmt.Errorf("scenario %s: negative deadline", s.Name)
	}
	var trWindow Dur
	trSeen := false
	for i := range s.Assertions {
		if err := s.Assertions[i].validate(s.Name, i, s.Procs); err != nil {
			return nil, err
		}
		if a := &s.Assertions[i]; a.Check == "time_resolved" {
			if trSeen && a.Window != trWindow {
				return nil, fmt.Errorf("scenario %s: time_resolved assertions disagree on window (%v vs %v); one analyzer serves them all",
					s.Name, trWindow.D(), a.Window.D())
			}
			trWindow, trSeen = a.Window, true
		}
	}
	return s.compile(smoke)
}

// wantsFT reports whether the scenario runs under the fault-tolerant
// runner: any declared crash or an explicit recovery block.
func (s *Scenario) wantsFT() bool {
	return len(s.Crashes) > 0 || s.Recovery != nil
}

func (a *Assertion) validate(name string, i, procs int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: assertion %d (%s): %s", name, i, a.Check, fmt.Sprintf(format, args...))
	}
	if a.Rank != nil && (*a.Rank < 0 || *a.Rank >= procs) {
		return bad("rank %d outside [0, %d)", *a.Rank, procs)
	}
	switch a.Check {
	case "overlap":
		if a.MinPct == nil && a.MaxPct == nil {
			return bad("needs min_pct and/or max_pct")
		}
	case "blame_share":
		if cats := categoryNames(); !slices.Contains(cats, a.Category) {
			return bad("unknown blame category %q (want one of %s)", a.Category, strings.Join(cats, ", "))
		}
		if a.MinShare == nil && a.MaxShare == nil {
			return bad("needs min_share and/or max_share")
		}
	case "error", "error_absent":
		if a.Check == "error_absent" && a.Error == "" {
			a.Error = "any"
		}
		if !slices.Contains(errorNames, a.Error) {
			return bad("unknown error %q (want timeout, peer_unreachable, deadlock or any)", a.Error)
		}
	case "bounds_valid", "conservation", "determinism":
		// No parameters.
	case "trace_hash", "report_hash":
		if len(a.Hash) != 64 {
			return bad("needs a 64-hex-digit sha256 hash")
		}
	case "duration":
		if a.Max <= 0 {
			return bad("needs a positive max")
		}
	case "time_resolved":
		if a.Metric == "" {
			a.Metric = "par_eff"
		}
		known := false
		for _, m := range timeres.MetricNames() {
			if m == a.Metric {
				known = true
			}
		}
		if !known {
			return bad("unknown metric %q (want one of %s)", a.Metric, strings.Join(timeres.MetricNames(), ", "))
		}
		switch a.Phase {
		case "", "compute", "exchange":
		default:
			return bad("unknown phase kind %q (want compute or exchange)", a.Phase)
		}
		if a.MinEff == nil && a.MaxEff == nil {
			return bad("needs min_eff and/or max_eff")
		}
		for _, p := range []*float64{a.MinEff, a.MaxEff} {
			if p != nil && (*p < 0 || *p > 1) {
				return bad("efficiency bound %.3f outside [0, 1]", *p)
			}
		}
		if a.Window < 0 || a.From < 0 || a.To < 0 || a.TolEff < 0 {
			return bad("window, from, to and tol_eff must be non-negative")
		}
		if a.To != 0 && a.To <= a.From {
			return bad("empty scope [%v, %v)", a.From.D(), a.To.D())
		}
	case "finding", "finding_absent":
		known := false
		for _, k := range diagnose.AnalyzeKinds() {
			if k == a.Kind {
				known = true
			}
		}
		if !known {
			return bad("unknown finding kind %q (want one of %s)",
				a.Kind, strings.Join(diagnose.AnalyzeKinds(), ", "))
		}
		switch a.MinSeverity {
		case "", diagnose.SevInfo, diagnose.SevWarn, diagnose.SevCritical:
		default:
			return bad("unknown min_severity %q (want info, warn or critical)", a.MinSeverity)
		}
	default:
		return bad("unknown check (want one of %s)", strings.Join(knownChecks, ", "))
	}
	return nil
}

// wantsTimeRes reports whether any assertion needs the time-resolved
// analyzer attached to the run. Finding assertions count: the
// diagnosis engine reads the windowed snapshot.
func (s *Scenario) wantsTimeRes() bool {
	return s.wantsFindings() || s.hasCheck("time_resolved")
}

// wantsFindings reports whether any assertion needs the diagnosis
// engine's findings.
func (s *Scenario) wantsFindings() bool {
	return s.hasCheck("finding") || s.hasCheck("finding_absent")
}

func (s *Scenario) hasCheck(kind string) bool {
	for i := range s.Assertions {
		if s.Assertions[i].Check == kind {
			return true
		}
	}
	return false
}

// timeResWindow picks the analyzer window: the assertions' declared
// window (they were validated to agree), else 0 for the package
// default.
func (s *Scenario) timeResWindow() time.Duration {
	for i := range s.Assertions {
		a := &s.Assertions[i]
		if a.Check == "time_resolved" && a.Window > 0 {
			return a.Window.D()
		}
	}
	return 0
}

// MinProcs returns the smallest machine this scenario can run on: the
// declared workload floor and every node named by the chaos schedule
// or stall list (smoke mode must not shrink below it).
func (s *Scenario) MinProcs() int {
	min := 2
	touch := func(n int) {
		if n+1 > min {
			min = n + 1
		}
	}
	for i := range s.Chaos {
		ev := &s.Chaos[i]
		for _, n := range ev.Nodes {
			touch(n)
		}
		for _, l := range ev.Links {
			if src, dst, err := parseLink(l); err == nil {
				touch(int(src))
				touch(int(dst))
			}
		}
	}
	for _, st := range s.Stalls {
		touch(st.Node)
	}
	for _, cr := range s.Crashes {
		touch(cr.Node)
	}
	if len(s.Crashes) > 0 {
		min = max(min, len(s.Crashes)+fabric.MinSurvivors)
	}
	return min
}

// parseLink parses "src->dst" (or "src-dst") into a directed link.
func parseLink(s string) (src, dst fabric.NodeID, err error) {
	a, b, ok := strings.Cut(s, "->")
	if !ok {
		a, b, ok = strings.Cut(s, "-")
	}
	if ok {
		si, err1 := strconv.Atoi(strings.TrimSpace(a))
		di, err2 := strconv.Atoi(strings.TrimSpace(b))
		if err1 == nil && err2 == nil && si >= 0 && di >= 0 {
			return fabric.NodeID(si), fabric.NodeID(di), nil
		}
	}
	return 0, 0, fmt.Errorf(`bad link %q (want "src->dst", e.g. "0->1")`, s)
}

// FaultPlan compiles the chaos schedule and stall list into the
// fabric's fault plan (nil when the scenario declares no faults). The
// compiled plan is validated.
func (s *Scenario) FaultPlan() (*fabric.FaultPlan, error) {
	plan := &fabric.FaultPlan{Seed: s.Seed}
	for i := range s.Chaos {
		ev := &s.Chaos[i]
		lf := fabric.LinkFaults{
			DropRate:        ev.Drop,
			DupRate:         ev.Dup,
			JitterMax:       ev.Jitter.D(),
			DropEvery:       ev.DropEvery,
			BandwidthFactor: ev.Bandwidth,
		}
		fe := fabric.FaultEvent{
			Label: ev.Label,
			At:    vtime.Time(ev.At),
			Clear: vtime.Time(ev.Clear),
			Ramp:  ev.Ramp.D(),
		}
		switch {
		case len(ev.Links) > 0:
			if len(ev.Nodes) > 0 {
				return nil, fmt.Errorf("scenario %s: chaos event %d scopes both nodes and links", s.Name, i)
			}
			fe.Links = map[fabric.Link]fabric.LinkFaults{}
			for _, l := range ev.Links {
				src, dst, err := parseLink(l)
				if err != nil {
					return nil, fmt.Errorf("scenario %s: chaos event %d: %w", s.Name, i, err)
				}
				fe.Links[fabric.Link{Src: src, Dst: dst}] = lf
			}
		case len(ev.Nodes) > 0:
			for _, n := range ev.Nodes {
				fe.Nodes = append(fe.Nodes, fabric.NodeID(n))
			}
			fe.NodeFaults = lf
		default:
			c := lf
			fe.Default = &c
		}
		plan.Schedule = append(plan.Schedule, fe)
	}
	for i, st := range s.Stalls {
		w := fabric.StallWindow{Node: fabric.NodeID(st.Node), Start: vtime.Time(st.Start)}
		switch {
		case st.Forever:
			w.End = fabric.Forever
		case st.Dur > 0:
			w.End = w.Start + vtime.Time(st.Dur)
		default:
			return nil, fmt.Errorf("scenario %s: stall %d needs a positive dur or forever: true", s.Name, i)
		}
		plan.Stalls = append(plan.Stalls, w)
	}
	if !plan.Active() {
		return nil, nil
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return plan, nil
}
