// Package timeres computes time-resolved standard metrics over the
// trace stream: rolling-window and per-phase POP-style efficiencies
// (parallel, load balance, communication, serialization, transfer)
// per rank and aggregate, plus per-window/per-phase overlap min/max
// bounds reusing the profile package's replay arithmetic.
//
// The analyzer is an incremental trace.Sink: it consumes records the
// moment each layer emits them (no post-hoc re-parse), so the same
// instance serves three consumers — the offline `ovlprof
// -timeresolved` report, the live `ovltop` console, and the scenario
// engine's `time_resolved` assertions. Under the simulator's
// coroutine discipline emission is single-threaded, but live viewers
// read snapshots from another goroutine, so the analyzer carries its
// own mutex.
//
// Per rank and window the classification is exhaustive — every
// nanosecond lands in exactly one of five buckets (compute, library
// active, wire wait, serialization wait, idle), a conservation
// invariant the tests assert on micro and NAS workloads:
//
//	Compute   = compute spans outside library calls
//	LibActive = in a library call and running
//	WireWait  = parked in a call while own wire traffic is in flight
//	SerWait   = parked in a call with no own wire traffic
//	Idle      = everything else (parked in user code, not yet spawned)
//
// From the per-rank compute totals c_r over a window of length W with
// R ranks (following "Trace-based, time-resolved analysis of MPI
// application performance using standard metrics"):
//
//	PE  = avg(c_r)/W            parallel efficiency
//	LB  = avg(c_r)/max(c_r)     load balance
//	CE  = max(c_r)/W            communication efficiency  (PE = LB·CE)
//	TE  = 1 − avg(wirewait_r)/W transfer efficiency
//	SE  = CE/TE                 serialization efficiency  (CE = SE·TE)
package timeres

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/profile"
	"ovlp/internal/trace"
)

// Schema versions the snapshot JSON.
const Schema = 1

// DefaultWindow is the rolling-window length when Options.Window is
// zero.
const DefaultWindow = 100 * time.Microsecond

// phaseFrac is the fraction of ranks that must be inside a library
// call for the run to count as an exchange phase.
const phaseFrac = 0.5

// Options parameterizes an Analyzer.
type Options struct {
	// Window is the tumbling-window length; 0 means DefaultWindow. The
	// last window is clipped to the run's end.
	Window time.Duration
	// Table prices overlap bounds; may be nil at construction and
	// supplied later via SetTable (a live sink attaches before the run
	// calibrates).
	Table *calib.Table
}

// Cell is one rank's exhaustive five-bucket time classification over
// one window or phase. Total() always equals the slice length — the
// conservation invariant.
type Cell struct {
	Rank      int           `json:"rank"`
	Compute   time.Duration `json:"compute_ns"`
	LibActive time.Duration `json:"lib_active_ns"`
	WireWait  time.Duration `json:"wire_wait_ns"`
	SerWait   time.Duration `json:"ser_wait_ns"`
	Idle      time.Duration `json:"idle_ns"`
}

// Total sums the five buckets.
func (c Cell) Total() time.Duration {
	return c.Compute + c.LibActive + c.WireWait + c.SerWait + c.Idle
}

// Efficiency is the aggregate metric set of one window or phase.
type Efficiency struct {
	Parallel      float64 `json:"par_eff"`
	LoadBalance   float64 `json:"load_bal"`
	Comm          float64 `json:"comm_eff"`
	Transfer      float64 `json:"xfer_eff"`
	Serialization float64 `json:"ser_eff"`
}

// MetricNames lists the assertable metric keys in fixed order.
func MetricNames() []string {
	return []string{"par_eff", "load_bal", "comm_eff", "xfer_eff", "ser_eff"}
}

// Get returns the named metric value.
func (e Efficiency) Get(name string) (float64, bool) {
	switch name {
	case "par_eff":
		return e.Parallel, true
	case "load_bal":
		return e.LoadBalance, true
	case "comm_eff":
		return e.Comm, true
	case "xfer_eff":
		return e.Transfer, true
	case "ser_eff":
		return e.Serialization, true
	}
	return 0, false
}

// OverlapBin sums the priced overlap bounds of the transfers whose
// completion stamp fell inside one window or phase.
type OverlapBin struct {
	Transfers int           `json:"transfers"`
	Data      time.Duration `json:"data_ns"`
	MinOv     time.Duration `json:"min_ov_ns"`
	MaxOv     time.Duration `json:"max_ov_ns"`
}

// Slice is one window or phase: its boundaries, per-rank cells,
// aggregate efficiencies and overlap bin.
type Slice struct {
	Index int `json:"index"`
	// Kind is "compute" or "exchange" for phases, empty for windows.
	Kind  string        `json:"kind,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Epoch is the recovery epoch in force at Start (0 until the first
	// epoch cut). Windows never span an epoch boundary: every observed
	// cut instant also terminates a window, so pre- and post-recovery
	// efficiency are never averaged together.
	Epoch   int        `json:"epoch,omitempty"`
	Cells   []Cell     `json:"cells"`
	Eff     Efficiency `json:"eff"`
	Overlap OverlapBin `json:"overlap"`
}

// Snapshot is a point-in-time view of the analysis: live consumers
// take one per refresh, offline consumers take one after Finalize.
type Snapshot struct {
	Schema int `json:"schema"`
	// Ranks lists the observed rank ids in ascending order.
	Ranks    []int         `json:"ranks"`
	Window   time.Duration `json:"window_ns"`
	Duration time.Duration `json:"duration_ns"`
	// Priced reports whether overlap bins were computed (a calibration
	// table was available).
	Priced  bool    `json:"priced"`
	Windows []Slice `json:"windows"`
	Phases  []Slice `json:"phases"`
}

// rankState accumulates one rank's raw interval evidence.
type rankState struct {
	rank            int
	comp, park, lib []span
}

// trackState dispatches one host track: rs is nil for non-rank procs
// (progress agents), whose records still feed the replay so no
// transfer sample is lost.
type trackState struct {
	rs   *rankState
	rr   *profile.RankReplay
	cuts []time.Duration // this track's epoch-cut instants, in order
}

type trackRef struct {
	group trace.Group
	id    int
}

// Analyzer consumes trace records incrementally and serves metric
// snapshots. Create with New, attach via trace.Tracer.AddSink.
type Analyzer struct {
	mu       sync.Mutex
	opts     Options
	table    *calib.Table
	tracks   map[trackRef]*trackState
	ranks    map[int]*rankState
	wire     map[int][]span
	samples  []profile.XferSample
	cuts     []time.Duration
	seen     time.Duration
	total    time.Duration
	finished bool

	// replayWindow is the user-interval retention for hardware-stamped
	// bounds: the exported trace's own for FromInput, 0 (the overlap
	// monitor's default) for a live sink.
	replayWindow int
}

// New creates an empty analyzer.
func New(opts Options) *Analyzer {
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	return &Analyzer{
		opts:   opts,
		table:  opts.Table,
		tracks: make(map[trackRef]*trackState),
		ranks:  make(map[int]*rankState),
		wire:   make(map[int][]span),
	}
}

// SetTable supplies (or replaces) the calibration table pricing the
// overlap bins — typically once the run has calibrated.
func (a *Analyzer) SetTable(t *calib.Table) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t != nil {
		a.table = t
	}
}

// TraceRec implements trace.Sink.
func (a *Analyzer) TraceRec(tk *trace.Track, r trace.Rec) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return
	}
	switch tk.Group() {
	case trace.GroupHost:
		a.feedHost(trackRef{tk.Group(), tk.ID()}, tk.Name(), &r)
	case trace.GroupNIC:
		if r.Cat == "wire" && r.Name == "xfer" {
			a.feedWire(tk.ID(), r.Args.Peer, r.Start.Duration(), r.End().Duration())
		}
	}
}

func (a *Analyzer) feedHost(ref trackRef, name string, r *trace.Rec) {
	if e := r.End().Duration(); e > a.seen {
		a.seen = e
	}
	ts, ok := a.tracks[ref]
	if !ok {
		ts = &trackState{rr: profile.NewRankReplay(a.replayWindow, func(x profile.XferSample) {
			a.samples = append(a.samples, x)
		})}
		if rank, isRank := rankOf(name); isRank {
			rs, seen := a.ranks[rank]
			if !seen {
				rs = &rankState{rank: rank}
				a.ranks[rank] = rs
			}
			ts.rs = rs
		}
		a.tracks[ref] = ts
	}
	ts.rr.Feed(*r)
	if r.Cat == "overlap" && r.Name == "epoch-cut" {
		at := r.Start.Duration()
		ts.cuts = append(ts.cuts, at)
		a.cuts = append(a.cuts, at)
	}
	if ts.rs == nil || r.Dur <= 0 {
		return
	}
	sp := span{r.Start.Duration(), r.End().Duration()}
	switch r.Cat {
	case "kernel":
		switch r.Name {
		case "compute":
			ts.rs.comp = append(ts.rs.comp, sp)
		case "park":
			ts.rs.park = append(ts.rs.park, sp)
		}
	case "mpi", "armci":
		if r.Name != "attach" {
			ts.rs.lib = append(ts.rs.lib, sp)
		}
	}
}

func (a *Analyzer) feedWire(src, dst int, start, end time.Duration) {
	if end > a.seen {
		a.seen = end
	}
	if end <= start {
		return
	}
	sp := span{start, end}
	a.wire[src] = append(a.wire[src], sp)
	if dst >= 0 && dst != src {
		a.wire[dst] = append(a.wire[dst], sp)
	}
}

// Finalize marks the stream complete: still-open transfers resolve as
// truncated (exactly like the overlap monitor at Finalize) and the
// run duration is pinned to total (or the largest stamp seen, if
// later). Idempotent; records fed afterwards are ignored.
func (a *Analyzer) Finalize(total time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return
	}
	a.finished = true
	for _, ts := range a.tracks {
		ts.rr.Finish()
	}
	a.total = a.seen
	if total > a.total {
		a.total = total
	}
}

// Err returns the first replay error any track hit (nil when clean).
func (a *Analyzer) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ts := range a.tracks {
		if err := ts.rr.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot computes the current windows, phases and efficiencies. Safe
// to call concurrently with emission (live view) and after Finalize
// (final report).
func (a *Analyzer) Snapshot() *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()

	s := &Snapshot{Schema: Schema, Window: a.opts.Window}
	for rank := range a.ranks {
		s.Ranks = append(s.Ranks, rank)
	}
	sort.Ints(s.Ranks)

	total := a.total
	if !a.finished {
		total = a.seen
	}
	s.Duration = total
	if total <= 0 {
		return s
	}

	// Per rank: merge the raw evidence and derive the bucket sets once;
	// windows and phases both slice the same derived lists.
	type derived struct {
		comp, lib, parkLib, wireWait, compLib []span
	}
	der := make([]derived, len(s.Ranks))
	libs := make([][]span, len(s.Ranks))
	for i, rank := range s.Ranks {
		rs := a.ranks[rank]
		d := &der[i]
		d.comp = mergeSpans(rs.comp)
		d.lib = mergeSpans(rs.lib)
		park := mergeSpans(rs.park)
		wire := mergeSpans(a.wire[rank])
		d.parkLib = intersectSpans(park, d.lib)
		d.wireWait = intersectSpans(d.parkLib, wire)
		d.compLib = intersectSpans(d.comp, d.lib)
		libs[i] = d.lib
	}

	cellsFor := func(lo, hi time.Duration) []Cell {
		cells := make([]Cell, len(s.Ranks))
		for i, rank := range s.Ranks {
			d := &der[i]
			parkLib := clipSum(d.parkLib, lo, hi)
			wireWait := clipSum(d.wireWait, lo, hi)
			c := Cell{
				Rank:      rank,
				Compute:   clipSum(d.comp, lo, hi) - clipSum(d.compLib, lo, hi),
				LibActive: clipSum(d.lib, lo, hi) - parkLib,
				WireWait:  wireWait,
				SerWait:   parkLib - wireWait,
			}
			c.Idle = (hi - lo) - c.Compute - c.LibActive - c.WireWait - c.SerWait
			cells[i] = c
		}
		return cells
	}

	buildSlice := func(idx int, kind string, lo, hi time.Duration) Slice {
		cells := cellsFor(lo, hi)
		return Slice{Index: idx, Kind: kind, Start: lo, End: hi,
			Cells: cells, Eff: effOf(cells, hi-lo)}
	}

	// Tumbling windows, the last clipped to the run end (a window
	// larger than the run degenerates to one clipped window). Epoch-cut
	// instants are additional window boundaries: a window straddling a
	// cut splits there, and each window carries the epoch in force at
	// its start.
	w := a.opts.Window
	bounds := cutBounds(a.cuts, total)
	for lo, next := time.Duration(0), 0; lo < total; {
		hi := lo - lo%w + w // next tumbling boundary after lo
		if hi > total {
			hi = total
		}
		for next < len(bounds) && bounds[next] <= lo {
			next++
		}
		if next < len(bounds) && bounds[next] < hi {
			hi = bounds[next]
		}
		sl := buildSlice(len(s.Windows), "", lo, hi)
		sl.Epoch = a.epochAt(lo)
		s.Windows = append(s.Windows, sl)
		lo = hi
	}

	// Phases: alternate compute/exchange segments tiling [0, total].
	for _, ph := range detectPhases(libs, total) {
		s.Phases = append(s.Phases, buildSlice(len(s.Phases), ph.kind, ph.s, ph.e))
	}

	a.priceOverlap(s, total)
	return s
}

// priceOverlap bins every transfer sample by completion stamp into
// the snapshot's windows and phases. Requires a calibration table
// when estimated-case samples exist; until one arrives the snapshot
// reports Priced=false with empty bins.
func (a *Analyzer) priceOverlap(s *Snapshot, total time.Duration) {
	if a.table == nil {
		for _, x := range a.samples {
			if x.Case != profile.CaseExact {
				return
			}
		}
	}
	s.Priced = true
	for i := range a.samples {
		x := &a.samples[i]
		xt, minOv, maxOv := x.Bounds(a.table)
		at := x.At
		if at > total {
			at = total
		}
		if len(s.Windows) > 0 {
			// Windows are ascending but not uniform (epoch cuts split
			// them), so find the first window ending after the stamp.
			wi := sort.Search(len(s.Windows), func(i int) bool { return s.Windows[i].End > at })
			if wi >= len(s.Windows) {
				wi = len(s.Windows) - 1
			}
			addBin(&s.Windows[wi].Overlap, xt, minOv, maxOv)
		}
		for pi := range s.Phases {
			ph := &s.Phases[pi]
			if at < ph.End || pi == len(s.Phases)-1 {
				addBin(&ph.Overlap, xt, minOv, maxOv)
				break
			}
		}
	}
}

// cutBounds returns the distinct cut instants inside (0, total),
// ascending — the extra window boundaries. Ranks cut at slightly
// different times during one recovery, so each observed instant is a
// boundary of its own.
func cutBounds(cuts []time.Duration, total time.Duration) []time.Duration {
	if len(cuts) == 0 {
		return nil
	}
	sorted := append([]time.Duration(nil), cuts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []time.Duration
	for _, c := range sorted {
		if c <= 0 || c >= total {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == c {
			continue
		}
		out = append(out, c)
	}
	return out
}

// epochAt returns the recovery epoch in force at stamp: the largest
// number of cuts any single track had performed by then (per-track,
// since one recovery produces one cut per surviving rank, at slightly
// different instants).
func (a *Analyzer) epochAt(at time.Duration) int {
	epoch := 0
	for _, ts := range a.tracks {
		n := 0
		for _, c := range ts.cuts {
			if c <= at {
				n++
			}
		}
		if n > epoch {
			epoch = n
		}
	}
	return epoch
}

func addBin(b *OverlapBin, xt, minOv, maxOv time.Duration) {
	b.Transfers++
	b.Data += xt
	b.MinOv += minOv
	b.MaxOv += maxOv
}

// effOf computes the aggregate efficiencies of one slice from its
// per-rank cells.
func effOf(cells []Cell, w time.Duration) Efficiency {
	if len(cells) == 0 || w <= 0 {
		return Efficiency{}
	}
	var sumComp, maxComp, sumWW time.Duration
	for _, c := range cells {
		sumComp += c.Compute
		if c.Compute > maxComp {
			maxComp = c.Compute
		}
		sumWW += c.WireWait
	}
	r := float64(len(cells))
	fw := float64(w)
	avgComp := float64(sumComp) / r
	avgWW := float64(sumWW) / r
	e := Efficiency{
		Parallel: avgComp / fw,
		Comm:     float64(maxComp) / fw,
		Transfer: 1 - avgWW/fw,
	}
	if maxComp > 0 {
		e.LoadBalance = avgComp / float64(maxComp)
	} else {
		e.LoadBalance = 1
	}
	if e.Transfer > 0 {
		e.Serialization = e.Comm / e.Transfer
	}
	return e
}

// phaseSeg is one detected phase segment.
type phaseSeg struct {
	kind string
	s, e time.Duration
}

// detectPhases sweeps the ranks' in-library interval edges and
// classifies every instant: when at least ceil(phaseFrac·R) ranks (min 1)
// are inside a library call the run is exchanging, otherwise
// computing. Consecutive same-kind segments merge; the result tiles
// [0, total] exactly.
func detectPhases(libs [][]span, total time.Duration) []phaseSeg {
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, l := range libs {
		for _, sp := range l {
			edges = append(edges, edge{sp.s, +1}, edge{sp.e, -1})
		}
	}
	if len(edges) == 0 {
		return []phaseSeg{{kind: "compute", s: 0, e: total}}
	}
	// Starts before ends at equal stamps, so a back-to-back call chain
	// never dips below threshold for a zero-length instant.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta
	})
	thr := int(math.Ceil(phaseFrac * float64(len(libs))))
	if thr < 1 {
		thr = 1
	}
	var segs []phaseSeg
	push := func(kind string, s, e time.Duration) {
		if e <= s {
			return
		}
		if n := len(segs); n > 0 && segs[n-1].kind == kind {
			segs[n-1].e = e
			return
		}
		segs = append(segs, phaseSeg{kind, s, e})
	}
	kindAt := func(count int) string {
		if count >= thr {
			return "exchange"
		}
		return "compute"
	}
	count := 0
	cursor := time.Duration(0)
	cur := kindAt(0)
	for i := 0; i < len(edges); {
		at := edges[i].at
		for i < len(edges) && edges[i].at == at {
			count += edges[i].delta
			i++
		}
		if at > total {
			at = total
		}
		if next := kindAt(count); next != cur {
			push(cur, cursor, at)
			if at >= total {
				cursor = total
				break
			}
			cur, cursor = next, at
		}
	}
	push(cur, cursor, total)
	return segs
}

// rankOf classifies a host-track name: rank tracks are a letter
// prefix plus a decimal rank id ("rank3", "armci0"); progress-agent
// tracks carry a dotted suffix and are excluded from per-rank
// classification.
func rankOf(name string) (int, bool) {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == len(name) || i == 0 {
		return 0, false
	}
	for j := 0; j < i; j++ {
		c := name[j]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return 0, false
		}
	}
	n := 0
	for j := i; j < len(name); j++ {
		n = n*10 + int(name[j]-'0')
	}
	return n, true
}

// FromInput runs the analyzer offline over a profile.Input — the
// bridge from exported trace files (ovlprof) to the same incremental
// machinery the live sink uses.
func FromInput(in profile.Input, opts Options) (*Snapshot, error) {
	if opts.Table == nil {
		opts.Table = in.Table
	}
	a := New(opts)
	a.replayWindow = in.Window
	a.mu.Lock()
	for i := range in.Ranks {
		rs := &in.Ranks[i]
		ref := trackRef{trace.GroupHost, rs.Rank}
		for j := range rs.Recs {
			a.feedHost(ref, rs.Name, &rs.Recs[j])
		}
	}
	for _, ws := range in.Wire {
		a.feedWire(ws.Src, ws.Dst, ws.Start, ws.End)
	}
	a.mu.Unlock()
	a.Finalize(in.Duration)
	if err := a.Err(); err != nil {
		return nil, fmt.Errorf("timeres: %w", err)
	}
	return a.Snapshot(), nil
}
