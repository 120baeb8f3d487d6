package overlap

import (
	"fmt"
	"slices"
	"time"

	"ovlp/internal/calib"
)

// This file is the paper's contribution in one place: Fold is the
// event-stream state machine of the three-case bounds algorithm
// (Sec. 2.2) and Sample.Bounds the only arithmetic that turns what it
// observed into a minimum and a maximum. The Monitor drives it from its
// event queue and prices every sample at once; profile.RankReplay
// drives it from a recorded trace and keeps the samples — so the live
// report and the offline replay agree by construction.

// Case says how a resolved transfer was observed: the paper's three
// cases, its third split by why the second stamp is missing, and the
// hardware-stamped refinement of precise.go.
type Case int

const (
	// CaseSameCall: begin and end fell inside one library call — no
	// overlap is possible and none is uncertain.
	CaseSameCall Case = iota
	// CaseBothStamps: both endpoints observed, at least one call
	// boundary between them; bounds come from the cumulative user/lib
	// clock deltas.
	CaseBothStamps
	// CaseSingleStamp: only the completion was visible to this process
	// (the receiver of an eager transfer, say).
	CaseSingleStamp
	// CaseTruncated: still open when the stream ended or an epoch was
	// cut; bounded like a single stamp.
	CaseTruncated
	// CaseExact: a hardware-stamped physical interval, bounded by the
	// retained user-interval window.
	CaseExact
)

func (c Case) String() string {
	switch c {
	case CaseSameCall:
		return "same-call"
	case CaseBothStamps:
		return "both-stamps"
	case CaseSingleStamp:
		return "single-stamp"
	case CaseTruncated:
		return "truncated"
	case CaseExact:
		return "exact"
	}
	return "invalid"
}

// Sample is one resolved transfer: its case and the raw measures the
// bounds follow from, with the calibration-table lookup deferred to
// Bounds — a live trace sink attaches before the run calibrates, so
// samples are collected table-free and priced once the table exists.
type Sample struct {
	ID     uint64
	Size   int64
	Region int32
	// Call is the driver's label (Fold.Call) for the library call the
	// transfer was initiated in — resolved in, when that was not seen.
	Call int32
	Case Case
	// Epoch is the recovery epoch the sample is charged to: the one in
	// force when its completion (or truncation) was observed.
	Epoch int
	// Cut marks a CaseTruncated sample closed by an epoch cut (it was
	// in flight when a failure was agreed) rather than by stream end.
	Cut bool
	// BeginAt/At are the observation window: initiation (zero when
	// unseen) and completion stamp; for CaseExact the physical wire
	// interval; for CaseTruncated, At is the cut or end-of-stream stamp.
	BeginAt time.Duration
	At      time.Duration
	// Computation is at most how long the process computed during the
	// window, Noncomputation at least how long it did not. For
	// CaseBothStamps they are the user/lib cumulative-clock deltas; for
	// CaseExact, what the retained user intervals prove either way, the
	// unknowable prefix predating the window horizon counting as
	// possible computation. Zero otherwise.
	Computation    time.Duration
	Noncomputation time.Duration
}

// Bounds prices the sample: xt is the transfer time the bounds are a
// share of — looked up in the calibration table, or for CaseExact the
// measured interval (a nil table will do) — and minOv/maxOv bracket
// how much of it user computation overlapped.
func (s *Sample) Bounds(table *calib.Table) (xt, minOv, maxOv time.Duration) {
	if s.Case == CaseExact {
		xt = s.At - s.BeginAt
	} else {
		xt = table.XferTime(int(s.Size))
	}
	switch s.Case {
	case CaseSameCall:
		// The application could not compute meanwhile.
		return xt, 0, 0
	case CaseSingleStamp, CaseTruncated:
		// Nothing conclusive can be said.
		return xt, 0, xt
	}
	maxOv = min(s.Computation, xt)
	// The library's completion events can fire before the physical
	// transfer ends (a sender's CQE precedes remote delivery), which
	// deflates noncomputation time and can push the lower bound above
	// the upper one. Clamp so the bracket stays well-formed.
	minOv = min(max(0, xt-s.Noncomputation), maxOv)
	return xt, minOv, maxOv
}

// openXfer is the compact record kept between a transfer's XFER_BEGIN
// and its XFER_END: cumulative-time snapshots only, no tracing.
type openXfer struct {
	size    int64
	cumUser time.Duration
	cumLib  time.Duration
	callSeq uint64 // outermost-call sequence number at begin
	region  int32
	call    int32
}

// beginAt is the stamp the record was taken at (see Fold.now).
func (o *openXfer) beginAt() time.Duration { return o.cumUser + o.cumLib }

// userInterval is one closed computation interval [start, end).
type userInterval struct{ start, end time.Duration }

// Fold replays one process's instrumentation events in order and
// resolves each transfer into a Sample. It is pure — no clock, no
// table, no output but the samples — and allocates only when the
// open-transfer map, the window or a caller's sample buffer grows.
type Fold struct {
	// Call labels the library call in progress: a driver may set it
	// before stepping a CALL_ENTER; the fold only copies it into samples.
	Call int32

	region   int32
	inLib    bool
	callSeq  uint64
	epoch    int
	lastExit time.Duration

	cumUser time.Duration // total user computation time so far
	cumLib  time.Duration // total communication call time so far

	open map[uint64]openXfer

	// The last window closed computation intervals, for exact transfers:
	// circular once full, oldest at ivals[oldest]; horizon is the end of
	// the last one evicted.
	ivals   []userInterval
	oldest  int
	window  int
	horizon time.Duration
}

// NewFold returns a fold at time zero, in user code, in the root
// region, retaining window computation intervals for exact transfers
// (0 means DefaultUserIntervalWindow).
func NewFold(window int) Fold {
	if window <= 0 {
		window = DefaultUserIntervalWindow
	}
	return Fold{window: window, open: make(map[uint64]openXfer)}
}

// InLib reports whether the stream is inside a library call.
func (f *Fold) InLib() bool { return f.inLib }

// Epoch returns the number of epoch cuts folded so far.
func (f *Fold) Epoch() int { return f.epoch }

// Step folds one event and appends the transfers it resolved to dst:
// one for an XFER_END or XFER_EXACT, every open transfer for an
// EPOCH_CUT, none otherwise. A stamp earlier than its predecessor's is
// an error and leaves the fold unchanged.
func (f *Fold) Step(e *Event, dst []Sample) ([]Sample, error) {
	if e.Kind == KindXferExact {
		// Stamp is the detection time, which a recorded trace does not
		// carry, and the exact case reads no clock: leave them, and the
		// next event pays the whole span in the same mode and region.
		return append(dst, f.exact(e)), nil
	}
	if err := f.advance(e.Stamp); err != nil {
		return dst, err
	}
	switch e.Kind {
	case KindCallEnter:
		f.inLib = true
		f.callSeq++
		f.recordUserInterval(f.lastExit, e.Stamp)
	case KindCallExit:
		f.inLib = false
		f.lastExit = e.Stamp
	case KindRegionPush, KindRegionPop:
		f.region = e.Region
	case KindXferBegin:
		f.open[e.ID] = openXfer{
			size:    e.Size,
			cumUser: f.cumUser,
			cumLib:  f.cumLib,
			callSeq: f.callSeq,
			region:  f.region,
			call:    f.Call,
		}
	case KindXferEnd:
		dst = append(dst, f.complete(e))
	case KindEpochCut:
		// Completions of transfers still open belong to the failed epoch
		// and will never arrive: charge them to the epoch they began in.
		dst = f.truncate(e.Stamp, true, dst)
		f.epoch++
	}
	return dst, nil
}

// Finish ends the stream: every transfer still open resolves as
// truncated at stamp at. The clocks do not move.
func (f *Fold) Finish(at time.Duration, dst []Sample) []Sample {
	return f.truncate(at, false, dst)
}

// now is the stamp the clocks have been advanced to: they start at
// zero and every span goes to exactly one of them.
func (f *Fold) now() time.Duration { return f.cumUser + f.cumLib }

// advance accounts the segment ending at stamp to user or library
// time according to the current mode.
func (f *Fold) advance(stamp time.Duration) error {
	span := stamp - f.now()
	if span < 0 {
		return fmt.Errorf("non-monotonic event stamps (%v after %v)", stamp, f.now())
	}
	if f.inLib {
		f.cumLib += span
	} else {
		f.cumUser += span
	}
	return nil
}

// complete classifies the transfer ending at event e.
func (f *Fold) complete(e *Event) Sample {
	rec, seen := f.open[e.ID]
	if !seen {
		// Initiation was invisible to this process: charge the current
		// region and trust the completion's size.
		return Sample{ID: e.ID, Size: e.Size, Region: f.region, Call: f.Call,
			Case: CaseSingleStamp, Epoch: f.epoch, At: e.Stamp}
	}
	delete(f.open, e.ID)
	s := Sample{ID: e.ID, Size: rec.size, Region: rec.region, Call: rec.call,
		Case: CaseSameCall, Epoch: f.epoch, BeginAt: rec.beginAt(), At: e.Stamp}
	if rec.callSeq != f.callSeq || !f.inLib {
		s.Case = CaseBothStamps
		s.Computation = f.cumUser - rec.cumUser
		s.Noncomputation = f.cumLib - rec.cumLib
	}
	return s
}

// truncate resolves every open transfer at stamp at, in ascending id
// order so the samples do not depend on map iteration.
func (f *Fold) truncate(at time.Duration, cut bool, dst []Sample) []Sample {
	ids := make([]uint64, 0, len(f.open))
	for id := range f.open {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		rec := f.open[id]
		dst = append(dst, Sample{ID: id, Size: rec.size, Region: rec.region, Call: rec.call,
			Case: CaseTruncated, Cut: cut, Epoch: f.epoch, BeginAt: rec.beginAt(), At: at})
	}
	clear(f.open)
	return dst
}

// recordUserInterval retains a closed computation interval, evicting
// the oldest once the window is full and advancing the horizon past it.
func (f *Fold) recordUserInterval(start, end time.Duration) {
	if end <= start {
		return
	}
	if len(f.ivals) < f.window {
		f.ivals = append(f.ivals, userInterval{start, end})
		return
	}
	f.horizon = f.ivals[f.oldest].end
	f.ivals[f.oldest] = userInterval{start, end}
	f.oldest = (f.oldest + 1) % f.window
}

// exact intersects a hardware-stamped transfer's physical interval
// with the retained computation intervals. The prefix predating them
// widens the bracket instead of corrupting the point estimate.
func (f *Fold) exact(e *Event) Sample {
	var known, unknown time.Duration
	for _, iv := range f.ivals {
		if lo, hi := max(e.Start, iv.start), min(e.End, iv.end); hi > lo {
			known += hi - lo
		}
	}
	if e.Start < f.horizon {
		unknown = min(e.End, f.horizon) - e.Start
	}
	return Sample{ID: e.ID, Size: e.Size, Region: f.region, Call: f.Call,
		Case: CaseExact, Epoch: f.epoch, BeginAt: e.Start, At: e.End,
		Computation: known + unknown, Noncomputation: e.End - e.Start - known}
}
