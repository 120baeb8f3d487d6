package profile

import (
	"fmt"
	"strings"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/ringpool"
)

// The replay reconstructs, per rank, the exact event sequence the
// overlap monitor processed — from the trace's call spans (emitted at
// call exit, so each span record follows the overlap instants that
// fired inside it) and overlap instants (emitted in true order) — and
// steps the monitor's own bounds fold (overlap.Fold) over it at
// per-transfer granularity. Sharing the fold is what makes attribution
// conservative: the per-transfer gaps sum to the report's max−min
// bound gap exactly.
//
// The reconstruction lives in stream.go (RankReplay), shared with the
// live time-resolved analyzer; this file is the offline driver that
// prices samples against the calibration table and classifies blame.

// xferObs is one replayed transfer with its bounds and blame.
type xferObs struct {
	region int32
	op     string
	epoch  int
	xt     time.Duration
	minOv  time.Duration
	maxOv  time.Duration
	blame  Blame
}

type parkSpan struct{ start, end time.Duration }

// Scratch that lives for one Analyze call — a rank's samples until they
// are priced, its timeline spans and the path's segments until the
// critical path is walked — comes from these lists and goes back before
// the call returns, so a sweep's analyses write over one another's
// instead of allocating (and zeroing) a trace's worth each. Like every
// ringpool buffer it is not cleared: pushScratch appends, and nothing
// reads past what it appended.
var (
	sampleScratch ringpool.List[XferSample]
	spanScratch   ringpool.List[tlSpan]
	segScratch    ringpool.List[PathSegment]
)

// minScratch is the capacity a scratch buffer starts at.
const minScratch = 256

// pushScratch appends v to scratch buffer b, which it draws from l and
// grows through it — always by doubling, so that the capacities every
// caller asks for are the same few. Hand the final b[:cap(b)] back with
// l.Put.
func pushScratch[T any](l *ringpool.List[T], b []T, v T) []T {
	if len(b) == cap(b) {
		grown := l.Get(max(minScratch, 2*cap(b)))[:len(b)]
		copy(grown, b)
		l.Put(b[:cap(b)])
		b = grown
	}
	return append(b, v)
}

// replayRank rebuilds rank rs's monitor event stream, replays it and
// hands each transfer, priced and blamed, to tally. It returns the
// rank's final recovery epoch (the number of epoch cuts seen).
func replayRank(rs *RankStream, in *Input, wire *wirePhases, tally func(xferObs)) (int, error) {
	var samples []XferSample
	defer func() { sampleScratch.Put(samples[:cap(samples)]) }()
	rr := NewRankReplay(in.Window, func(x XferSample) { samples = pushScratch(&sampleScratch, samples, x) })
	for i := range rs.Recs {
		rr.feed(&rs.Recs[i])
	}
	rr.Finish()
	if err := rr.Err(); err != nil {
		return 0, err
	}
	if rs.Protocol == "" {
		rs.Protocol = rr.Protocol()
	}
	if rr.Events() == 0 {
		return rr.fold.Epoch(), nil
	}
	if in.Table == nil {
		return 0, fmt.Errorf("overlap events present but no calibration table to replay bounds with")
	}
	for i := range samples {
		x := &samples[i]
		xt, minOv, maxOv := x.Bounds(in.Table)
		tally(xferObs{region: x.Region, op: rr.Op(x),
			epoch: x.Epoch, xt: xt, minOv: minOv, maxOv: maxOv,
			blame: classify(x, minOv, maxOv, in, wire, rs.Protocol, rr)})
	}
	return rr.fold.Epoch(), nil
}

// recoveryBlame attributes a sample's gap to a recovery cause, or
// false when the sample is ordinary (healthy-run) traffic.
func recoveryBlame(x *XferSample, gap time.Duration, in *Input) (Blame, bool) {
	var b Blame
	if x.Cut {
		// In flight when the failure was agreed: the epoch cut truncated
		// it, so its whole uncertainty is the price of detection.
		b.Detect = gap
		return b, true
	}
	switch regionName(in.RegionNames, x.Region) {
	case cluster.RegionAgree:
		b.Agree = gap
	case cluster.RegionRollback, cluster.RegionCheckpoint:
		b.Rollback = gap
	case cluster.RegionRecompute:
		b.Recompute = gap
	default:
		return Blame{}, false
	}
	return b, true
}

// classify attributes a sample's bound gap to one cause, preserving
// the monitor-era taxonomy per case.
func classify(x *XferSample, minOv, maxOv time.Duration, in *Input, wire *wirePhases, protocol string, rr *RankReplay) Blame {
	gap := maxOv - minOv
	var b Blame
	if gap == 0 {
		// Nothing to attribute.
		return b
	}
	if rb, ok := recoveryBlame(x, gap, in); ok {
		return rb
	}
	switch x.Case {
	case CaseExact:
		// The only exact-case gap is the evicted user-interval window.
		b.Unknown = gap
	case CaseBothStamps:
		switch {
		case in.Retrans[x.ID] > 0:
			b.FaultRetransmit = gap
		case x.Noncomputation > 0 && 2*rr.ParkTime(x.BeginAt, x.At) >= x.Noncomputation:
			b.EarlyWait = gap
		case wire.pipelined(x.ID, protocol):
			b.Protocol = gap
		default:
			b.Progress = gap
		}
	default:
		switch {
		case in.Retrans[x.ID] > 0:
			b.FaultRetransmit = gap
		case x.Case == CaseTruncated:
			b.Truncated = gap
		case x.Case == CaseSingleStamp:
			b.LateInit = gap
		default:
			b.Unknown = gap
		}
	}
	return b
}

// wirePhases answers, for a transfer id that reached the wire, whether
// its first wire span moved under a pipelined phase. The index is built
// once per Analyze, on the first question (many inputs never ask), so
// classifying a transfer does not scan the wire.
type wirePhases struct {
	wire  []WireSpan
	first map[uint64]bool
}

// pipelined reports whether transfer id moved under a pipelined phase —
// by wire tag when the id reached the wire, by the rank's protocol
// otherwise (a receiver's virtual bulk transfer never does).
func (w *wirePhases) pipelined(id uint64, protocol string) bool {
	if w.first == nil {
		w.first = make(map[uint64]bool, len(w.wire))
		for i := range w.wire {
			if _, seen := w.first[w.wire[i].ID]; !seen {
				w.first[w.wire[i].ID] = strings.HasPrefix(w.wire[i].Phase, "pipelined")
			}
		}
	}
	if p, ok := w.first[id]; ok {
		return p
	}
	return strings.Contains(protocol, "Pipelined")
}
