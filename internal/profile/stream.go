package profile

import (
	"time"

	"ovlp/internal/overlap"
	"ovlp/internal/trace"
)

// This file is the streaming half of the replay: RankReplay turns
// trace records back into the monitor's event stream one record at a
// time and steps overlap.Fold — the state machine the monitor itself
// runs — so live consumers (internal/timeres via a trace.Sink) can
// compute per-transfer overlap bounds while the run is still going,
// and the offline path (replayRank) reuses the identical machine.

// XferSample and its cases are the bounds fold's: the replay adds only
// the call label (Call, an index RankReplay.Op resolves) to what the
// monitor itself would see.
type XferSample = overlap.Sample

const (
	CaseBothStamps  = overlap.CaseBothStamps
	CaseSingleStamp = overlap.CaseSingleStamp
	CaseTruncated   = overlap.CaseTruncated
	CaseExact       = overlap.CaseExact
)

// RankReplay reconstructs one rank's monitor event stream record by
// record and replays the bounds state machine, emitting an XferSample
// per completed transfer. Feed records in the host track's emission
// order; call Finish exactly once when the stream ends.
type RankReplay struct {
	emit func(XferSample)

	// Reconstruction state: overlap instants are held until the call
	// span that contained them is emitted at call exit, so instants
	// stamped before the call began replay as user-code events.
	pending  []overlap.Event
	parks    []parkSpan
	labels   map[uint64]string
	done     time.Duration
	protocol string
	events   int

	// The bounds state machine — the monitor's own — and the call
	// names its samples' labels index.
	fold  overlap.Fold
	ops   []string
	opIdx map[string]int32

	finished bool
	err      error
}

// NewRankReplay creates a streaming replay. window is the
// user-interval retention for hardware-stamped bounds (0 selects
// overlap.DefaultUserIntervalWindow); emit receives each completed
// transfer and must not be nil.
func NewRankReplay(window int, emit func(XferSample)) *RankReplay {
	return &RankReplay{emit: emit, fold: overlap.NewFold(window),
		ops: []string{"", opOutside: "(outside)"}, opIdx: map[string]int32{}}
}

// opOutside labels a transfer that surfaced with no call in progress (a
// progress thread moved it); label 0 is "no call seen yet".
const opOutside = 1

// Op returns the site x is charged to: the library call, unless a
// nonblocking-collective schedule issued the transfer. The schedule owns
// it then, not whichever call (or progress-thread poll) happened to be
// active when the protocol moved it, so starvation blame lands on e.g.
// "Iallreduce[ring]".
func (r *RankReplay) Op(x *XferSample) string {
	if lbl, ok := r.labels[x.ID]; ok {
		return lbl
	}
	return r.ops[x.Call]
}

// Err returns the first replay error; once set, further Feed calls
// are ignored.
func (r *RankReplay) Err() error { return r.err }

// Events returns how many monitor events have been replayed — the
// emptiness test offline analysis keys its table requirement on.
func (r *RankReplay) Events() int { return r.events }

// Protocol returns the library protocol from the attach instant (""
// when none was seen).
func (r *RankReplay) Protocol() string { return r.protocol }

// ParkTime sums the rank's parked time inside [from, to].
func (r *RankReplay) ParkTime(from, to time.Duration) time.Duration {
	var total time.Duration
	for _, p := range r.parks {
		if p.end <= from {
			continue
		}
		if p.start >= to {
			break
		}
		lo, hi := p.start, p.end
		if from > lo {
			lo = from
		}
		if to < hi {
			hi = to
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// Feed consumes one host-track record.
func (r *RankReplay) Feed(rec trace.Rec) { r.feed(&rec) }

// feed is Feed reading the record where it lies.
func (r *RankReplay) feed(rec *trace.Rec) {
	if r.err != nil || r.finished {
		return
	}
	end := rec.End().Duration()
	if end > r.done {
		r.done = end
	}
	switch rec.Cat {
	case "mpi", "armci":
		if rec.Name == "attach" {
			if r.protocol == "" {
				r.protocol = rec.Args.Detail
			}
			return
		}
		// A call span record is emitted at call exit, after every
		// overlap instant that fired inside it; pending instants
		// stamped before the call began happened in user code.
		start := rec.Start.Duration()
		r.flush(start, false)
		idx, ok := r.opIdx[rec.Name]
		if !ok {
			idx = int32(len(r.ops))
			r.ops = append(r.ops, rec.Name)
			r.opIdx[rec.Name] = idx
		}
		r.fold.Call = idx
		r.step(&overlap.Event{Kind: overlap.KindCallEnter, Stamp: start})
		r.flush(0, true)
		r.step(&overlap.Event{Kind: overlap.KindCallExit, Stamp: end})
	case "overlap":
		ev := overlap.Event{Stamp: rec.Start.Duration(), ID: rec.Args.ID, Size: rec.Args.Size}
		switch rec.Name {
		case "xfer-begin":
			ev.Kind = overlap.KindXferBegin
		case "xfer-end":
			ev.Kind = overlap.KindXferEnd
		case "xfer-exact":
			// The span is the physical interval; when it was detected
			// is not recorded, and the fold does not ask.
			ev.Kind = overlap.KindXferExact
			ev.Start, ev.End = ev.Stamp, end
		case "region-push":
			ev.Kind = overlap.KindRegionPush
			ev.Region = int32(rec.Args.ID)
		case "region-pop":
			ev.Kind = overlap.KindRegionPop
			ev.Region = int32(rec.Args.ID)
		case "epoch-cut":
			ev.Kind = overlap.KindEpochCut
		default:
			return
		}
		r.pending = append(r.pending, ev)
	case "kernel":
		if rec.Name == "park" && rec.Dur > 0 {
			r.parks = append(r.parks, parkSpan{start: rec.Start.Duration(), end: end})
		}
	case "coll":
		if rec.Name == "sched" && rec.Args.Detail != "" {
			if r.labels == nil {
				r.labels = make(map[uint64]string)
			}
			r.labels[rec.Args.ID] = rec.Args.Detail
		}
	}
}

// flush replays pending overlap instants: those stamped before upto
// (or all of them) in order, stopping at the first that belongs
// inside the current call. An exact span's coordinates are the
// transfer's physical interval, which can predate the call that
// detected it; it was logged inside that call, so it is never an
// outside event (and everything logged after it is inside too).
func (r *RankReplay) flush(upto time.Duration, all bool) {
	n := 0
	for i := range r.pending {
		ev := &r.pending[i]
		if !all && (ev.Kind == overlap.KindXferExact || ev.Stamp >= upto) {
			break
		}
		r.step(ev)
		n++
	}
	// Keep the array: re-slicing from n would walk the queue off the
	// front of it and make Feed's next append reallocate, call after call.
	if n > 0 {
		r.pending = r.pending[:copy(r.pending, r.pending[n:])]
	}
}

// step folds one reconstructed monitor event and forwards what it
// resolved.
func (r *RankReplay) step(e *overlap.Event) {
	if r.err != nil {
		return
	}
	r.events++
	var buf [1]overlap.Sample // only a cut resolves more
	out, err := r.fold.Step(e, buf[:0])
	if err != nil {
		// A hostile or damaged trace, not a bug: the monitor that wrote
		// a sound one read a monotonic clock.
		r.err = err
		return
	}
	r.forward(out)
}

// forward hands the fold's samples on. The fold labels a transfer whose
// initiation it never saw with the call in progress; when none is, the
// site is "(outside)".
func (r *RankReplay) forward(out []overlap.Sample) {
	for i := range out {
		if c := out[i].Case; (c == CaseSingleStamp || c == CaseExact) && !r.fold.InLib() {
			out[i].Call = opOutside
		}
		r.emit(out[i])
	}
}

// Finish flushes pending instants and resolves still-open transfers
// as the monitor does at Finalize: truncated, in ascending id order.
// Safe to call once; further Feeds are ignored.
func (r *RankReplay) Finish() {
	if r.finished {
		return
	}
	r.flush(0, true)
	r.finished = true
	if r.err != nil {
		return
	}
	r.forward(r.fold.Finish(r.done, nil))
}
