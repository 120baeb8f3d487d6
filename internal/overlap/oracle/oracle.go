// Package oracle is the reference the bounds fold is held to: a second,
// deliberately independent implementation of the paper's three-case
// min/max rule (DESIGN.md §4.3), written to be read rather than to be
// fast. It shares the event and report types with package overlap and
// nothing else — never the Fold — so agreement between the two is
// evidence, not construction. It replays one process's raw event stream,
// keeps everything, and checks what no real system can: that the
// monitor's incrementally folded report equals the replay exactly
// (CheckTotals — this exercises the queue, the drains and the epoch
// snapshots), and that for every transfer the fabric double-stamped,
// min ≤ true overlap ≤ max within the caller's tolerance (CheckTruth).
//
// Do not "fix" the oracle to match the fold: when they disagree, one of
// them is wrong about the paper.
package oracle

import (
	"fmt"
	"slices"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
)

// Interval is a half-open stretch [Start, End) of the process's time.
type Interval struct{ Start, End time.Duration }

// Result is one resolved transfer.
type Result struct {
	ID   uint64
	Size int64
	// Case is how the transfer was observed, in overlap.Case's words:
	// "same-call", "both-stamps", "single-stamp", "truncated", "exact".
	Case  string
	Epoch int
	// Xfer is the transfer time the bounds are a share of: calibrated,
	// or for an exact transfer the measured interval At.
	Xfer, Min, Max time.Duration
}

// Epoch is one recovery epoch's slice of the stream's sums.
type Epoch struct {
	Count          int
	Data, Min, Max time.Duration
	User, Lib      time.Duration
	// Truncated counts the transfers closed by the cut ending the epoch.
	Truncated int
}

// Replay is everything the oracle derived from one event stream.
type Replay struct {
	Results []Result
	// Epochs has one entry more than the stream has cuts.
	Epochs []Epoch
	// User lists the computation intervals, ascending.
	User []Interval
	// Violations are stamps that run backwards; the time they would
	// subtract is not folded into anything.
	Violations []string
	// Inexact lists the hardware-stamped transfers the window cost more
	// than it may, no tolerance: the overlap an unbounded window would
	// have proven lies within the bounds, and equals both while the
	// transfer starts inside the retained one. (Sound streams only: a
	// call entered twice records computation intervals that overlap.)
	Inexact []string
}

// Run replays events, ending the stream at stamp end. window is the
// monitor's Config.UserIntervalWindow (0 for its default); it matters
// only to exact transfers.
func Run(events []overlap.Event, end time.Duration, table *calib.Table, window int) *Replay {
	if window <= 0 {
		window = overlap.DefaultUserIntervalWindow
	}
	type begin struct {
		size      int64
		user, lib time.Duration
		call      int
	}
	var (
		r         = &Replay{Epochs: make([]Epoch, 1)}
		open      = map[uint64]begin{}
		now, exit time.Duration // previous stamp; last return to user code
		inLib     bool
		call      int
		user, lib time.Duration // the two clocks, whole run
	)
	elapse := func(to time.Duration) {
		d := to - now
		if d < 0 {
			r.Violations = append(r.Violations, fmt.Sprintf("stamp %v follows %v", to, now))
			return
		}
		ep := &r.Epochs[len(r.Epochs)-1]
		if inLib {
			lib, ep.Lib = lib+d, ep.Lib+d
		} else {
			user, ep.User = user+d, ep.User+d
		}
		now = to
	}
	compute := func(to time.Duration) {
		if to > exit {
			r.User = append(r.User, Interval{exit, to})
		}
	}
	resolve := func(res Result) {
		res.Epoch = len(r.Epochs) - 1
		r.Results = append(r.Results, res)
		ep := &r.Epochs[res.Epoch]
		ep.Count++
		ep.Data += res.Xfer
		ep.Min += res.Min
		ep.Max += res.Max
	}
	// Case 3 for want of a completion: zero to the whole transfer time.
	truncate := func() int {
		ids := make([]uint64, 0, len(open))
		for id := range open {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			xt := table.XferTime(int(open[id].size))
			resolve(Result{ID: id, Size: open[id].size, Case: "truncated", Xfer: xt, Max: xt})
		}
		clear(open)
		return len(ids)
	}

	for _, e := range events {
		if e.Kind == overlap.KindXferExact {
			// Stamped by the NIC, so the process's clocks have no say:
			// what the retained intervals cover is overlap for certain,
			// what predates them may or may not be.
			kept, horizon := r.User, time.Duration(0)
			if n := len(kept) - window; n > 0 {
				kept, horizon = kept[n:], kept[n-1].End
			}
			data := e.End - e.Start
			known := within(kept, e.Start, e.End)
			hi := min(data, known+max(0, min(e.End, horizon)-e.Start))
			lo := min(known, hi)
			resolve(Result{ID: e.ID, Size: e.Size, Case: "exact", Xfer: data, Min: lo, Max: hi})
			if all := within(r.User, e.Start, e.End); all < lo || all > hi || (e.Start >= horizon && lo != hi) {
				r.Inexact = append(r.Inexact, fmt.Sprintf("exact xfer %d [%v, %v), horizon %v: true overlap %v, bounds [%v, %v]",
					e.ID, e.Start, e.End, horizon, all, lo, hi))
			}
			continue
		}
		elapse(e.Stamp)
		switch e.Kind {
		case overlap.KindCallEnter:
			inLib = true
			call++
			compute(e.Stamp)
		case overlap.KindCallExit:
			inLib = false
			exit = e.Stamp
		case overlap.KindXferBegin:
			open[e.ID] = begin{size: e.Size, user: user, lib: lib, call: call}
		case overlap.KindXferEnd:
			b, seen := open[e.ID]
			if !seen {
				// Case 3: only the completion was stamped.
				xt := table.XferTime(int(e.Size))
				resolve(Result{ID: e.ID, Size: e.Size, Case: "single-stamp", Xfer: xt, Max: xt})
				break
			}
			delete(open, e.ID)
			xt := table.XferTime(int(b.size))
			if b.call == call && inLib {
				// Case 1: the process never left the library meanwhile.
				resolve(Result{ID: e.ID, Size: b.size, Case: "same-call", Xfer: xt})
				break
			}
			// Case 2: at most the computation in between overlapped, at
			// least what the library time in between cannot account for.
			hi := min(user-b.user, xt)
			lo := min(max(0, xt-(lib-b.lib)), hi)
			resolve(Result{ID: e.ID, Size: b.size, Case: "both-stamps", Xfer: xt, Min: lo, Max: hi})
		case overlap.KindEpochCut:
			r.Epochs[len(r.Epochs)-1].Truncated = truncate()
			r.Epochs = append(r.Epochs, Epoch{})
		}
	}
	elapse(end)
	if !inLib {
		compute(end)
	}
	truncate()
	return r
}

// within returns how much of [start, end) falls inside ivs.
func within(ivs []Interval, start, end time.Duration) time.Duration {
	var total time.Duration
	for _, iv := range ivs {
		if s, e := max(start, iv.Start), min(end, iv.End); e > s {
			total += e - s
		}
	}
	return total
}

// CheckTotals compares the monitor's report with the replay: whole-run
// measures and clocks, and the epoch breakdown entry for entry when the
// report has one (a rank that never cut has none). It returns one line
// per mismatch.
func (r *Replay) CheckTotals(rep *overlap.Report) []string {
	var bad []string
	check := func(what string, want Epoch, m overlap.Measures, user, lib time.Duration, trunc int) {
		got := Epoch{m.Count, m.DataTransferTime, m.MinOverlapped, m.MaxOverlapped, user, lib, trunc}
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: oracle %+v != monitor %+v", what, want, got))
		}
	}
	var sum Epoch
	for _, ep := range r.Epochs {
		sum.Count += ep.Count
		sum.Data += ep.Data
		sum.Min += ep.Min
		sum.Max += ep.Max
		sum.User += ep.User
		sum.Lib += ep.Lib
	}
	check("totals", sum, rep.Total(), rep.UserComputeTime(), rep.CommCallTime(), 0)
	if len(rep.Epochs) == 0 {
		return bad
	}
	if len(rep.Epochs) != len(r.Epochs) {
		return append(bad, fmt.Sprintf("report has %d epochs, oracle %d", len(rep.Epochs), len(r.Epochs)))
	}
	for i, er := range rep.Epochs {
		check(fmt.Sprintf("epoch %d", i), r.Epochs[i], er.Total, er.UserComputeTime, er.CommCallTime, er.Truncated)
	}
	return bad
}

// Truth indexes a fabric ground-truth log by transfer id (the last
// wire interval wins when an id moved more than once).
func Truth(transfers []fabric.Transfer) map[uint64]fabric.Transfer {
	m := make(map[uint64]fabric.Transfer, len(transfers))
	for _, tr := range transfers {
		m[tr.XferID] = tr
	}
	return m
}

// Slack is a caller's tolerance for one transfer whose wire interval
// lasted wire and whose bounds are a share of xfer: lower loosens the
// checks that the bounds do not overstate the overlap (same-call means
// none, min ≤ true), upper the check that they do not understate it
// (true ≤ max). The library's view is approximate — completions are
// detected at the CQ, not on the wire — so no caller passes zero.
type Slack func(wire, xfer time.Duration) (lower, upper time.Duration)

// CheckTruth holds every result the fabric has a ground-truth interval
// for (ids it never saw are library-internal, or were swallowed by a
// crash) to min ≤ true overlap ≤ max, the true overlap being the wire
// interval's share of the process's computation intervals. It returns
// one line per violation.
func (r *Replay) CheckTruth(truth map[uint64]fabric.Transfer, slack Slack) []string {
	var bad []string
	for _, res := range r.Results {
		tr, ok := truth[res.ID]
		if !ok {
			continue
		}
		ov := within(r.User, tr.Start.Duration(), tr.End.Duration())
		lower, upper := slack((tr.End - tr.Start).Duration(), res.Xfer)
		if res.Case == "same-call" && ov > lower {
			bad = append(bad, fmt.Sprintf("xfer %d (size %d): same-call transfer but true overlap %v > %v",
				res.ID, res.Size, ov, lower))
		}
		if res.Min > ov+lower {
			bad = append(bad, fmt.Sprintf("xfer %d (size %d): min bound %v exceeds true overlap %v (+%v)",
				res.ID, res.Size, res.Min, ov, lower))
		}
		if ov > res.Max+upper {
			bad = append(bad, fmt.Sprintf("xfer %d (size %d): true overlap %v exceeds max bound %v (+%v)",
				res.ID, res.Size, ov, res.Max, upper))
		}
	}
	return bad
}
