package overlap

import (
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// Modelled host-CPU costs of the instrumentation, charged through
// Config.Charge when it is set.
const (
	// EventCost is the cost of logging one event; a traced library
	// also pays it once per call-span emission.
	EventCost = 40 * time.Nanosecond
	// DrainCostPerEvent is the cost of folding one queued event into
	// the running measures.
	DrainCostPerEvent = 25 * time.Nanosecond
)

// Instrument enables the overlap instrumentation inside a
// communication library.
type Instrument struct {
	// Table is the a-priori transfer-time table (required).
	Table *calib.Table
	// QueueSize is each process's event queue capacity; 0 selects
	// DefaultQueueSize.
	QueueSize int
	// ModelCost, when true, charges the modelled CPU cost of the
	// instrumentation itself to the process (used by the overhead
	// experiment, Fig. 20).
	ModelCost bool
	// SinkFor, if non-nil, supplies a per-process sink for the raw
	// event stream (an *EventLog, say), for validation against ground
	// truth; with a tracer attached both see every event. Production
	// configs leave it nil.
	SinkFor func(rank int) Sink
}

// Calls is the library-resident half of the framework for one
// process, shared by the mpi and armci libraries: its monitor, its
// host track and the nesting of its library calls, which it brackets
// with CALL_ENTER/CALL_EXIT. Only the outermost call of a nest is
// time-stamped, spanned and timed, so collectives built from
// point-to-point calls register as one visit. All methods must be
// called from the process's own context.
type Calls struct {
	// Mon is the process's monitor, nil when uninstrumented.
	Mon *Monitor
	// Trk is the process's host track, nil when untraced.
	Trk *trace.Track
	// Op names the outermost library call in progress.
	Op string

	proc     *vtime.Proc
	rank     int
	cat      string        // trace category of the call spans
	spanCost time.Duration // modelled cost per call-span emission
	depth    int
	enterAt  vtime.Time
	peer     int   // peer of the outermost call, -1 when none
	size     int64 // message size of the outermost call, -1 when none
	libTime  time.Duration
}

// procClock adapts a vtime proc to the Clock interface.
type procClock struct{ p *vtime.Proc }

func (c procClock) Now() time.Duration { return c.p.Now().Duration() }

// Attach binds the calls to process rank's proc p at spawn time. With
// a tracer it opens p's host track and marks it with an "attach"
// instant in category cat carrying args; with ins it builds the
// monitor, whose modelled costs (under ins.ModelCost) are charged to
// *driver — the proc driving the library when the event is logged.
func (c *Calls) Attach(p *vtime.Proc, driver **vtime.Proc, rank int, ins *Instrument, tr *trace.Tracer, cat string, args trace.Args) {
	c.proc, c.rank, c.cat = p, rank, cat
	if tr != nil {
		c.Trk = tr.Track(trace.GroupHost, p.ID(), p.Name())
		c.Trk.Instant(cat, "attach", p.Now(), args)
	}
	if ins == nil {
		return
	}
	mc := Config{
		Clock:       procClock{p},
		Table:       ins.Table,
		QueueSize:   ins.QueueSize,
		ClockDomain: string(p.Sim().ClockDomain()),
	}
	if ins.ModelCost {
		mc.Charge = func(d time.Duration) { (*driver).Compute(d) }
		if c.Trk != nil {
			c.spanCost = EventCost
		}
	}
	if ins.SinkFor != nil {
		mc.Sink = ins.SinkFor(rank)
	}
	var ts *trackSink
	if c.Trk != nil {
		// Overlap events ride on the same host track; the monitor's
		// Charge path already models their logging cost.
		ts = &trackSink{tk: c.Trk}
		mc.Sink = Tee(mc.Sink, ts)
		m := tr.Metrics()
		drains := m.Counter("overlap.drains")
		drained := m.Counter("overlap.drained_events")
		batch := m.Gauge("overlap.drain_batch")
		mc.OnDrain = func(n int) {
			drains.Inc()
			drained.Add(int64(n))
			batch.Set(int64(n))
			// Size carries the batch size: how many queued events the
			// processing module just folded.
			c.Trk.Instant("overlap", "queue-drain", p.Now(), trace.Args{Peer: trace.NoPeer, Size: int64(n)})
		}
	}
	c.Mon = NewMonitor(mc)
	if ts != nil {
		ts.mon = c.Mon
	}
}

// Enter opens a library call named op with its peer and message size
// (-1 where the call has none) and reports whether it is the outermost
// one.
func (c *Calls) Enter(op string, peer int, size int64) bool {
	c.depth++
	outer := c.depth == 1
	if outer {
		c.enterAt = c.proc.Now()
		c.Op, c.peer, c.size = op, peer, size
	}
	c.Mon.CallEnter()
	return outer
}

// Exit closes the innermost open call. Closing the outermost one emits
// its call span — after charging the span's modelled emission cost, so
// the span includes its own overhead — and returns the call's library
// time and true.
func (c *Calls) Exit() (time.Duration, bool) {
	c.Mon.CallExit()
	c.depth--
	if c.depth > 0 {
		return 0, false
	}
	if c.Trk != nil {
		if c.spanCost > 0 {
			c.proc.Compute(c.spanCost)
		}
		c.Trk.Span(c.cat, c.Op, c.enterAt, c.proc.Now(), trace.Args{Peer: c.peer, Size: c.size})
	}
	d := c.proc.Now().Sub(c.enterAt)
	c.libTime += d
	return d, true
}

// Unwind closes every open call without a span after an abort unwound
// through them, and pops the monitored regions the application left
// open on the way out. It returns the interrupted call's library time
// and whether a call was open.
func (c *Calls) Unwind() (time.Duration, bool) {
	open := c.depth > 0
	var d time.Duration
	if open {
		for ; c.depth > 0; c.depth-- {
			c.Mon.CallExit()
		}
		d = c.proc.Now().Sub(c.enterAt)
		c.libTime += d
	}
	c.Mon.UnwindRegions()
	return d, open
}

// Depth returns the nesting depth of open library calls.
func (c *Calls) Depth() int { return c.depth }

// LibTime returns the aggregate time spent inside library calls,
// maintained whether or not the process is instrumented.
func (c *Calls) LibTime() time.Duration { return c.libTime }

// Report finalizes the monitor and returns the process's report, nil
// when uninstrumented.
func (c *Calls) Report() *Report {
	if c.Mon == nil {
		return nil
	}
	rep := c.Mon.Finalize()
	rep.Rank = c.rank
	return rep
}

// trackSink renders a monitor's event stream onto its process's host
// track: transfer begin/end approximations become instants,
// hardware-stamped exact transfers become spans over their physical
// interval, and region transitions become instants naming the region —
// all in category "overlap", so exported traces stay self-describing
// offline. Call enter/exit events are skipped: the library emits richer
// named call spans for the same intervals.
type trackSink struct {
	tk  *trace.Track
	mon *Monitor
}

func (s *trackSink) OverlapEvent(e Event) {
	at := vtime.Time(e.Stamp)
	switch e.Kind {
	case KindXferBegin:
		s.tk.Instant("overlap", "xfer-begin", at, trace.Args{Peer: trace.NoPeer, ID: e.ID, Size: e.Size})
	case KindXferEnd:
		s.tk.Instant("overlap", "xfer-end", at, trace.Args{Peer: trace.NoPeer, ID: e.ID, Size: e.Size})
	case KindXferExact:
		s.tk.Span("overlap", "xfer-exact", vtime.Time(e.Start), vtime.Time(e.End),
			trace.Args{Peer: trace.NoPeer, ID: e.ID, Size: e.Size})
	case KindRegionPush:
		s.tk.Instant("overlap", "region-push", at, trace.Args{Peer: trace.NoPeer, ID: uint64(e.Region), Detail: s.mon.RegionName(e.Region)})
	case KindRegionPop:
		s.tk.Instant("overlap", "region-pop", at, trace.Args{Peer: trace.NoPeer, ID: uint64(e.Region), Detail: s.mon.RegionName(e.Region)})
	case KindEpochCut:
		s.tk.Instant("overlap", "epoch-cut", at, trace.Args{Peer: trace.NoPeer})
	}
}
