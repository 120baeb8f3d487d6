package profile

import (
	"sort"
	"time"

	"ovlp/internal/trace"
)

// Critical-path extraction: a backward walk from the end of the run
// through the happens-before graph the traces record. On a rank, time
// only advances inside kernel "compute" and "park" spans, so a rank's
// spans tile its lifetime and the walk always has a span to consume.
// The cross-timeline edges are (a) wire arrivals — a park that ends
// exactly when a ground-truth transfer lands was released by that
// delivery, so the walk crosses onto the wire and then onto the
// sending rank — and (b) unpark instants naming the proc that released
// the sleeper. Everything else (control packets, timers) stays on-rank
// as "wait". Each step emits a segment [new cursor, cursor], so the
// segments tile [0, duration] and the path length equals the run's
// virtual wall time by construction.

type rankTimeline struct {
	rank    int
	name    string
	spans   []tlSpan              // compute/park, sorted by start
	unparks map[time.Duration]int // wake stamp -> waker proc id
}

type tlSpan struct {
	start, end time.Duration
	park       bool
	label      string
}

// timelineSpan reports whether rec is one of the kernel spans a rank's
// timeline is built from.
func timelineSpan(rec *trace.Rec) bool {
	return rec.Cat == "kernel" && rec.Dur != 0 && (rec.Name == "compute" || rec.Name == "park")
}

func criticalPath(in *Input, duration time.Duration) CriticalPath {
	lines := make(map[int]*rankTimeline)
	// The timelines are scratch (see spanScratch): the path's segments
	// copy what they need out of them.
	defer func() {
		for _, tl := range lines {
			spanScratch.Put(tl.spans[:cap(tl.spans)])
		}
	}()
	for i := range in.Ranks {
		rs := &in.Ranks[i]
		tl := &rankTimeline{rank: rs.Rank, name: rs.Name, unparks: make(map[time.Duration]int)}
		for j := range rs.Recs {
			rec := &rs.Recs[j]
			switch {
			case timelineSpan(rec):
				tl.spans = pushScratch(&spanScratch, tl.spans, tlSpan{
					start: rec.Start.Duration(),
					end:   rec.End().Duration(),
					park:  rec.Name == "park",
					label: rec.Args.Detail,
				})
			case rec.Cat == "kernel" && rec.Name == "unpark" && rec.Args.Peer >= 0:
				tl.unparks[rec.Start.Duration()] = rec.Args.Peer
			}
		}
		sort.SliceStable(tl.spans, func(a, b int) bool { return tl.spans[a].start < tl.spans[b].start })
		lines[rs.Rank] = tl
	}

	// Arrival index: (dst, end) -> transfer, preferring the latest
	// start (the most recently departed, hence binding, dependency) and
	// then the largest id for determinism.
	type arrKey struct {
		dst int
		end time.Duration
	}
	arrivals := make(map[arrKey]*WireSpan, len(in.Wire))
	for i := range in.Wire {
		w := &in.Wire[i]
		k := arrKey{w.Dst, w.End}
		if cur, ok := arrivals[k]; !ok || w.Start > cur.Start ||
			(w.Start == cur.Start && w.ID > cur.ID) {
			arrivals[k] = w
		}
	}

	cp := CriticalPath{}
	if duration <= 0 || len(lines) == 0 {
		return cp
	}

	// Start on the rank that finished last.
	rank, last := -1, time.Duration(-1)
	for id, tl := range lines {
		if n := len(tl.spans); n > 0 {
			if e := tl.spans[n-1].end; e > last || (e == last && id < rank) {
				rank, last = id, e
			}
		}
	}
	if rank < 0 {
		return cp
	}

	// The walk emits segments newest-first into scratch; how many there
	// are is known only once it is back at t=0.
	var walk []PathSegment
	defer func() { segScratch.Put(walk[:cap(walk)]) }()
	push := func(s PathSegment) {
		if s.End > s.Start {
			walk = pushScratch(&segScratch, walk, s)
		}
	}
	cursor := duration
	hops := 0
	for cursor > 0 {
		tl := lines[rank]
		if tl == nil {
			push(PathSegment{Rank: rank, Kind: "idle", Start: 0, End: cursor})
			cursor = 0
			break
		}
		// Last span starting strictly before the cursor.
		i := sort.Search(len(tl.spans), func(i int) bool { return tl.spans[i].start >= cursor }) - 1
		if i < 0 {
			push(PathSegment{Rank: rank, Kind: "idle", Label: tl.name, Start: 0, End: cursor})
			cursor = 0
			break
		}
		sp := tl.spans[i]
		if sp.end < cursor {
			// The rank was done (or between lifetimes) here: idle filler.
			push(PathSegment{Rank: rank, Kind: "idle", Label: tl.name, Start: sp.end, End: cursor})
			cursor = sp.end
			hops = 0
			continue
		}
		if !sp.park {
			push(PathSegment{Rank: rank, Kind: "compute", Start: sp.start, End: cursor})
			cursor = sp.start
			hops = 0
			continue
		}
		// Parked. If the park ended exactly at the cursor with a wire
		// arrival, the delivery released it: cross onto the wire.
		if cursor == sp.end {
			if w := arrivals[arrKey{rank, cursor}]; w != nil && w.Start < cursor {
				label := w.Phase
				if label == "" {
					label = "wire"
				}
				push(PathSegment{Rank: -1, Kind: "wire", Label: label, Start: w.Start, End: cursor})
				cursor = w.Start
				rank = w.Src
				hops = 0
				continue
			}
			if by, ok := tl.unparks[cursor]; ok && by != rank && hops < len(lines) {
				// A proc released the sleeper at this instant: follow the
				// edge without consuming time (bounded to rule out
				// same-instant wake cycles).
				rank = by
				hops++
				continue
			}
		}
		push(PathSegment{Rank: rank, Kind: "wait", Label: sp.label, Start: sp.start, End: cursor})
		cursor = sp.start
		hops = 0
	}

	// Report them in time order, in a slice of exactly their number.
	segs := make([]PathSegment, len(walk))
	for i := range walk {
		segs[len(walk)-1-i] = walk[i]
	}
	cp.Segments = segs
	totals := map[string]time.Duration{}
	for _, s := range segs {
		cp.Length += s.End - s.Start
		totals[s.Kind] += s.End - s.Start
	}
	for _, kind := range []string{"compute", "wait", "wire", "idle"} {
		if t, ok := totals[kind]; ok {
			cp.ByKind = append(cp.ByKind, KindTotal{Kind: kind, Time: t})
		}
	}
	return cp
}
