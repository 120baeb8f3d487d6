package overlap

import (
	"fmt"
	"time"

	"ovlp/internal/calib"
)

// DefaultQueueSize is the default capacity of the circular event
// queue.
const DefaultQueueSize = 4096

// DefaultBinBounds are the default message-size bin upper bounds
// (inclusive), in bytes; messages larger than the last bound fall into
// a final open-ended bin. The first bins cover the "short" (eager)
// regime, the later ones the "long" (rendezvous) regime.
func DefaultBinBounds() []int {
	return []int{1 << 10, 8 << 10, 64 << 10, 512 << 10, 4 << 20}
}

// Sink receives a copy of every instrumentation event as it is
// logged, before it enters the circular queue. Implementations must
// not call back into the Monitor.
type Sink interface {
	OverlapEvent(e Event)
}

// EventLog is a Sink that keeps every event it is handed, in order —
// what the ground-truth oracle, the ASCII timeline and tests read a
// process's raw stream from.
type EventLog []Event

// OverlapEvent appends e to the log.
func (l *EventLog) OverlapEvent(e Event) { *l = append(*l, e) }

// Tee returns a Sink that hands every event to a and then to b; a nil
// side is left out, so the result is nil when both are.
func Tee(a, b Sink) Sink {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return tee{a, b}
}

type tee struct{ a, b Sink }

func (t tee) OverlapEvent(e Event) {
	t.a.OverlapEvent(e)
	t.b.OverlapEvent(e)
}

// Config parameterizes a Monitor.
type Config struct {
	// Clock supplies time-stamps. Required.
	Clock Clock
	// Table is the a-priori transfer-time table. Required.
	Table *calib.Table
	// ClockDomain names the clock the stamps are read from ("virtual",
	// "real"); it is copied into the report so downstream
	// analysis knows whether the bounds are deterministic virtual-time
	// quantities or wall-clock measurements. Empty means virtual.
	ClockDomain string
	// QueueSize is the circular event queue capacity; 0 means
	// DefaultQueueSize.
	QueueSize int
	// BinBounds are inclusive upper bounds of the message-size bins,
	// ascending; nil means DefaultBinBounds().
	BinBounds []int
	// Charge, if non-nil, is invoked with the modelled host-CPU cost
	// of instrumentation work (EventCost per logged event,
	// DrainCostPerEvent per folded one), so a simulation can account
	// for the framework's own overhead.
	Charge func(time.Duration)
	// UserIntervalWindow is the number of recent user-computation
	// intervals retained for XferExact intersection; 0 means
	// DefaultUserIntervalWindow. Irrelevant unless the substrate
	// supplies hardware time-stamps.
	UserIntervalWindow int
	// Sink, if non-nil, additionally receives every event as it is
	// logged — the production tracing path (Calls tees a sink that
	// turns events into timeline records). Sink invocations are not
	// charged by the monitor; a simulation that models tracing cost
	// charges it at the emission layer instead.
	Sink Sink
	// OnDrain, if non-nil, is invoked after the processing module
	// folds n queued events into the running measures (n > 0 only), so
	// an observer can record queue-drain activity.
	OnDrain func(n int)
}

// Monitor is the per-process instrumentation instance: the data
// collection module (hot-path event logging into a circular queue) and
// the data processing module (the bounds algorithm) of the framework.
//
// A nil *Monitor is valid and ignores all calls, so libraries can be
// built with instrumentation unconditionally and run uninstrumented at
// zero cost beyond a nil check.
//
// Monitors are process-local and perform no interprocess
// communication; all methods must be called from the owning process's
// context (they are not safe for concurrent use).
type Monitor struct {
	cfg   Config
	q     *ring
	depth int // nesting depth of library calls

	regionIndex map[string]int32
	regionNames []string
	regionStack []int32

	// The data processing module (process.go): the bounds fold, the
	// running measures it feeds, and the cumulative state at each cut.
	fold    Fold
	regions []*regionAcc
	epochs  []EpochReport

	finalized bool
}

// NewMonitor creates a Monitor. It panics if Clock or Table is
// missing, since a silently mis-configured instrument is worse than a
// crash at startup.
func NewMonitor(cfg Config) *Monitor {
	if cfg.Clock == nil {
		panic("overlap: Config.Clock is required")
	}
	if cfg.Table == nil {
		panic("overlap: Config.Table is required")
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.QueueSize < 2 {
		panic("overlap: queue size must be at least 2")
	}
	if cfg.BinBounds == nil {
		cfg.BinBounds = DefaultBinBounds()
	}
	for i := 1; i < len(cfg.BinBounds); i++ {
		if cfg.BinBounds[i] <= cfg.BinBounds[i-1] {
			panic("overlap: bin bounds must be strictly ascending")
		}
	}
	return &Monitor{
		cfg:         cfg,
		q:           newRing(cfg.QueueSize),
		regionIndex: map[string]int32{"": 0},
		regionNames: []string{""},
		fold:        NewFold(cfg.UserIntervalWindow),
	}
}

// log records an event in the circular queue, draining the queue
// through the processing module first if it is full.
func (m *Monitor) log(e Event) {
	if m.finalized {
		panic("overlap: event after Finalize")
	}
	if m.cfg.Charge != nil {
		m.cfg.Charge(EventCost)
	}
	if m.cfg.Sink != nil {
		m.cfg.Sink.OverlapEvent(e)
	}
	if m.q.full() {
		// Normally drained at the push that fills the queue; re-entrant
		// logging (e.g. a Charge callback that triggers events) can
		// still find it full. Fold the backlog into the running
		// measures and continue: profiling degrades gracefully instead
		// of killing the run.
		m.process()
	}
	if m.q.push(e) {
		m.process()
	}
}

// process drains the queue into the running measures.
func (m *Monitor) process() {
	n := m.q.drain(m.apply)
	if m.cfg.Charge != nil {
		m.cfg.Charge(time.Duration(n) * DrainCostPerEvent)
	}
	if n > 0 && m.cfg.OnDrain != nil {
		m.cfg.OnDrain(n)
	}
}

// CallEnter marks entry into the communication library. Calls nest;
// only the outermost transition is time-stamped, so collectives built
// from point-to-point calls register as a single library visit.
func (m *Monitor) CallEnter() {
	if m == nil {
		return
	}
	m.depth++
	if m.depth == 1 {
		m.log(Event{Kind: KindCallEnter, Stamp: m.cfg.Clock.Now()})
	}
}

// CallExit marks the matching exit from the communication library.
func (m *Monitor) CallExit() {
	if m == nil {
		return
	}
	if m.depth == 0 {
		panic("overlap: CallExit without CallEnter")
	}
	m.depth--
	if m.depth == 0 {
		m.log(Event{Kind: KindCallExit, Stamp: m.cfg.Clock.Now()})
	}
}

// InCall reports whether the process is currently inside a library
// call (at any nesting depth).
func (m *Monitor) InCall() bool { return m != nil && m.depth > 0 }

// XferBegin marks the initiation of the data transfer identified by
// id, of size bytes. It must be called from within a library call.
func (m *Monitor) XferBegin(id uint64, size int) {
	if m == nil {
		return
	}
	m.log(Event{Kind: KindXferBegin, ID: id, Size: int64(size), Stamp: m.cfg.Clock.Now()})
}

// XferEnd marks the detected completion of transfer id. size is used
// only when the transfer's begin event was never observed (for
// example, the receive side of an eager transfer, where the initiation
// is invisible to the receiver).
func (m *Monitor) XferEnd(id uint64, size int) {
	if m == nil {
		return
	}
	m.log(Event{Kind: KindXferEnd, ID: id, Size: int64(size), Stamp: m.cfg.Clock.Now()})
}

// PushRegion directs subsequent activity to the named monitored
// region, giving the application-level control over monitored code
// sections described in the paper. Regions may nest; activity is
// attributed to the innermost region only, so aggregating all regions
// yields whole-program measures.
func (m *Monitor) PushRegion(name string) {
	if m == nil {
		return
	}
	idx, ok := m.regionIndex[name]
	if !ok {
		idx = int32(len(m.regionNames))
		m.regionIndex[name] = idx
		m.regionNames = append(m.regionNames, name)
	}
	m.regionStack = append(m.regionStack, idx)
	m.log(Event{Kind: KindRegionPush, Region: idx, Stamp: m.cfg.Clock.Now()})
}

// RegionName returns the registered name of a region index ("" for
// the root region or an unknown index). Safe to call from a Sink: a
// region's name is registered before its push event is logged.
func (m *Monitor) RegionName(idx int32) string {
	if m == nil || idx <= 0 || int(idx) >= len(m.regionNames) {
		return ""
	}
	return m.regionNames[idx]
}

// UnwindRegions pops every open monitored region, restoring the root
// region — used after an abort (a rank-failure panic) unwound the
// application mid-region, so post-recovery activity is not
// misattributed to a region that was never popped.
func (m *Monitor) UnwindRegions() {
	if m == nil {
		return
	}
	for len(m.regionStack) > 0 {
		m.PopRegion()
	}
}

// PopRegion leaves the current monitored region.
func (m *Monitor) PopRegion() {
	if m == nil {
		return
	}
	if len(m.regionStack) == 0 {
		panic("overlap: PopRegion without PushRegion")
	}
	m.regionStack = m.regionStack[:len(m.regionStack)-1]
	top := int32(0)
	if n := len(m.regionStack); n > 0 {
		top = m.regionStack[n-1]
	}
	m.log(Event{Kind: KindRegionPop, Region: top, Stamp: m.cfg.Clock.Now()})
}

// EpochCut closes the current recovery epoch at the present instant:
// transfers still open are resolved as truncated (single-stamped: zero
// minimum, full maximum overlap — charged to the epoch that started
// them, since their completion will never be observed), and subsequent
// activity accumulates into the next epoch. The final report then
// carries a per-epoch breakdown alongside the whole-run measures. The
// cut is an ordinary queued event, so it reaches any Sink (and thus
// exported traces) in stream order and offline replays reproduce the
// truncation exactly. Must be called outside any library call. A nil
// monitor ignores the call.
func (m *Monitor) EpochCut() {
	if m == nil {
		return
	}
	if m.finalized {
		panic("overlap: EpochCut after Finalize")
	}
	if m.depth != 0 {
		panic(fmt.Sprintf("overlap: EpochCut inside a library call (depth %d)", m.depth))
	}
	m.log(Event{Kind: KindEpochCut, Stamp: m.cfg.Clock.Now()})
}

// Finalize drains outstanding events, closes still-open transfers
// (single-stamped: zero minimum, full maximum overlap), and returns
// the process's report. The monitor rejects further events afterwards,
// so its event queue is handed on to the next monitor here.
func (m *Monitor) Finalize() *Report {
	if m == nil {
		return nil
	}
	if m.finalized {
		panic("overlap: Finalize called twice")
	}
	if m.depth != 0 {
		panic(fmt.Sprintf("overlap: Finalize inside a library call (depth %d)", m.depth))
	}
	m.process()
	m.finalized = true
	m.q.release()
	return m.finish(m.cfg.Clock.Now())
}
