// Package overlap implements the paper's contribution: a performance
// instrumentation framework that characterizes computation-
// communication overlap in message-passing systems by deriving
// minimum and maximum bounds on the overlapped fraction of data
// transfer time.
//
// The framework is embedded in a communication library (the mpi and
// armci packages both bind it through Calls) and observes four events,
// in the spirit of the PERUSE specification:
//
//   - CALL ENTER / CALL EXIT: the application enters/leaves the
//     communication library, demarcating user computation from
//     communication call regions.
//   - XFER BEGIN / XFER END: the library's best approximation of the
//     start and completion of a user-message data transfer (e.g. the
//     posting of a work request and the detection of its completion by
//     polling a completion queue).
//
// Because the NIC initiates and progresses transfers, the host cannot
// know precise transfer times; the framework therefore brackets the
// achieved overlap between a lower and an upper bound, using an
// a-priori table of per-size transfer times (package calib).
//
// Events are logged into a fixed-size circular queue and folded into
// running per-process, per-region, per-message-size-bin measures when
// the queue fills — profiling, not tracing, so the memory footprint is
// constant and no interprocess communication is ever performed.
package overlap

import (
	"time"

	"ovlp/internal/ringpool"
)

// Clock supplies time-stamps to a Monitor as durations since an
// arbitrary per-process origin. The vtime simulation clock and a
// wall-clock (WallClock) both satisfy it.
type Clock interface {
	Now() time.Duration
}

// WallClock is a Clock reading the host's monotonic clock, for
// instrumenting real (non-simulated) message-passing code.
type WallClock struct {
	origin time.Time
}

// NewWallClock returns a WallClock with origin now.
func NewWallClock() *WallClock { return &WallClock{origin: time.Now()} }

// Now returns the time elapsed since the clock's origin.
func (c *WallClock) Now() time.Duration { return time.Since(c.origin) }

// Kind enumerates the instrumentation event types.
type Kind uint8

const (
	// KindCallEnter marks the application entering the communication
	// library (outermost call only).
	KindCallEnter Kind = iota
	// KindCallExit marks the application leaving the library.
	KindCallExit
	// KindXferBegin marks the library initiating a user-data transfer
	// (e.g. posting a work request).
	KindXferBegin
	// KindXferEnd marks the library detecting completion of a transfer.
	KindXferEnd
	// KindRegionPush and KindRegionPop change the monitored region to
	// which subsequent activity is attributed.
	KindRegionPush
	KindRegionPop
	// KindXferExact records a transfer whose physical interval is
	// known from NIC hardware time-stamps (see Monitor.XferExact).
	KindXferExact
	// KindEpochCut closes the current recovery epoch: open transfers
	// are resolved as truncated and subsequent activity accumulates
	// into the next epoch (see Monitor.EpochCut).
	KindEpochCut
)

func (k Kind) String() string {
	switch k {
	case KindCallEnter:
		return "CALL_ENTER"
	case KindCallExit:
		return "CALL_EXIT"
	case KindXferBegin:
		return "XFER_BEGIN"
	case KindXferEnd:
		return "XFER_END"
	case KindRegionPush:
		return "REGION_PUSH"
	case KindRegionPop:
		return "REGION_POP"
	case KindXferExact:
		return "XFER_EXACT"
	case KindEpochCut:
		return "EPOCH_CUT"
	}
	return "INVALID"
}

// Event is one time-stamped instrumentation record. Events are fixed
// size so the circular queue never allocates after construction.
type Event struct {
	Kind   Kind
	Region int32         // region index, for KindRegionPush
	Size   int64         // message bytes, for transfer events
	ID     uint64        // transfer id, for transfer events
	Stamp  time.Duration // time since process origin
	// Start and End carry the physical transfer interval for
	// KindXferExact events (hardware time-stamps).
	Start, End time.Duration
}

// ring is the fixed-size circular event queue of the data collection
// module. The caller drains it completely when Push reports it full.
type ring struct {
	buf  []Event
	n    int // occupied
	head int // index of oldest
}

// queues recycles event queues from one monitor to the next: a queue
// enters at Monitor.Finalize, where it becomes garbage anyway, and
// newRing draws one of exactly its capacity. Queues are not cleared —
// the ring reads only the n slots it pushed since its last drain — so
// a sweep of runs pays for each rank's queue once, not once per run.
var queues ringpool.List[Event]

func newRing(capacity int) *ring {
	return &ring{buf: queues.Get(capacity)}
}

// release hands the drained queue's buffer to the free list; the ring
// is unusable afterwards.
func (r *ring) release() {
	queues.Put(r.buf)
	r.buf = nil
}

// full reports whether the queue has no room for another event.
func (r *ring) full() bool { return r.n == len(r.buf) }

// push appends an event and reports whether the queue is now full. The
// caller must drain a full queue before pushing again (Monitor.log
// does so automatically).
func (r *ring) push(e Event) bool {
	if r.full() {
		panic("overlap: event queue overflow (drain before pushing)")
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
	return r.full()
}

// drain invokes fn on every queued event in order and resets the
// queue. It returns the number of events processed.
func (r *ring) drain(fn func(*Event)) int {
	n := r.n
	for i := 0; i < n; i++ {
		fn(&r.buf[(r.head+i)%len(r.buf)])
	}
	r.head, r.n = 0, 0
	return n
}
