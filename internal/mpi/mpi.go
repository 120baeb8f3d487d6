// Package mpi implements a message-passing library in the style of the
// MPI implementations the paper instruments (Open MPI 1.0.1 and
// MVAPICH2 0.6.5), running over the simulated RDMA fabric.
//
// The library reproduces the architectural properties that determine
// overlap behaviour on real systems:
//
//   - A single-threaded, polling-based progress engine: protocol state
//     machines advance only while the application is inside a library
//     call. An arrived rendezvous request or acknowledgment sits
//     unnoticed in the NIC queues until the next MPI call polls.
//   - An eager protocol for short messages (bounce-buffer copy, then a
//     one-sided write the receiver discovers by polling).
//   - Two long-message rendezvous protocols, selectable per-world like
//     Open MPI's mpi_leave_pinned parameter: PipelinedRDMA (fragmented
//     RDMA writes scheduled by the sender after an acknowledgment —
//     Open MPI's default) and DirectRDMARead (the receiver reads the
//     sender's buffer directly upon the request — Open MPI with
//     leave_pinned, and MVAPICH2's rendezvous).
//
// The library embeds the paper's instrumentation (package overlap):
// every call is bracketed by CALL_ENTER/CALL_EXIT and every user-data
// transfer posts XFER_BEGIN/XFER_END where the library can observe
// them, entirely within the library.
//
// Messages carry sizes and envelopes, not payload bytes: the package
// is a timing-faithful communication skeleton, which is exactly what
// overlap characterization requires.
package mpi

import (
	"fmt"
	"time"

	"ovlp/internal/coll"
	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
	"ovlp/internal/progress"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// LongProtocol selects the rendezvous protocol for messages above the
// eager threshold.
type LongProtocol int

const (
	// PipelinedRDMA fragments the message; the sender transmits a
	// request plus the first fragment, waits for an acknowledgment,
	// and then pipelines the remaining fragments — but only while the
	// application is inside the library (Open MPI v1.0 default).
	PipelinedRDMA LongProtocol = iota
	// DirectRDMARead has the receiver pull the whole message from the
	// sender's registered buffer with a single RDMA read upon seeing
	// the request (Open MPI mpi_leave_pinned; MVAPICH2 rendezvous).
	DirectRDMARead
)

func (p LongProtocol) String() string {
	switch p {
	case PipelinedRDMA:
		return "pipelined-rdma"
	case DirectRDMARead:
		return "direct-rdma-read"
	}
	return "invalid"
}

// Wildcards for Recv/Irecv/Probe matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// InstrumentConfig is overlap.Instrument under the name this
// package's callers know it by.
type InstrumentConfig = overlap.Instrument

// Config parameterizes a World.
type Config struct {
	// Protocol is the long-message protocol (default PipelinedRDMA).
	Protocol LongProtocol
	// EagerThreshold is the largest message sent eagerly, in bytes
	// (default 12 KiB, typical for InfiniBand MPIs of the era).
	EagerThreshold int
	// FragmentSize is the pipelined-protocol fragment size (default
	// 64 KiB). The first fragment, which travels with the request, is
	// EagerThreshold bytes.
	FragmentSize int
	// MaxOutstanding is the pipelined-protocol credit limit on
	// simultaneously posted fragments (default 4).
	MaxOutstanding int
	// LeavePinned enables the registration cache: buffers keyed by
	// (peer, tag, size) are pinned once and reused, as with Open MPI's
	// mpi_leave_pinned MRU cache. When false, rendezvous operations
	// pin on the fly every time (MVAPICH2 behaviour).
	LeavePinned bool
	// Reliable enables the software reliable-delivery layer: sequence
	// numbers, hardware acks, retransmission with exponential backoff
	// and duplicate suppression. Required when the fabric runs with an
	// active fault plan; nil keeps the pre-fault fast path. On retry
	// exhaustion library calls fail with a *CommError wrapping
	// ErrTimeout or ErrPeerUnreachable.
	Reliable *fabric.ReliableParams
	// CollAlgo selects the algorithm family for the nonblocking
	// collectives' dataflow schedules (default coll.Auto: the
	// customary per-operation choice).
	CollAlgo coll.Algo
	// CollChunk pipelines schedule transfers in chunks of at most this
	// many bytes where the algorithm supports it (0 = whole-message).
	CollChunk int
	// Progress configures who advances pending nonblocking-collective
	// schedules between library calls: nobody (manual, the default),
	// every call boundary (piggyback), or a dedicated per-rank
	// progress thread waking on a virtual-time quantum.
	Progress progress.Config
	// FT enables ULFM-style fault tolerance: heartbeat failure
	// detection on the progress engine, ErrProcFailed revocation,
	// survivor agreement (Rank.Agree), recovery epochs (Rank.EpochCut)
	// and communicator shrinking (Rank.Shrink). Requires Reliable with
	// a finite retry budget — retry exhaustion is the failure
	// detector's primitive.
	FT *FTConfig
	// HWTimestamps makes the library consume the NIC's hardware
	// transfer time-stamps, feeding the instrumentation's precise
	// XferExact path instead of the XFER_BEGIN/XFER_END bounds — the
	// refinement the paper names as future work. The HCAs of the
	// paper's era could not do this; the simulated fabric can.
	HWTimestamps bool
	// Instrument enables the overlap instrumentation; nil runs the
	// library uninstrumented.
	Instrument *overlap.Instrument
	// Tracer, if non-nil, receives structured trace records: one call
	// span per outermost library call (tagged with peer and message
	// size where the call has them) plus the overlap monitor's event
	// stream, all on the rank's host track. When Instrument.ModelCost
	// is also set, each call-span emission charges one
	// overlap.EventCost to the rank, so the tracer's overhead is
	// modelled like the monitor's.
	Tracer *trace.Tracer
}

func (c *Config) fillDefaults() {
	if c.EagerThreshold == 0 {
		c.EagerThreshold = 12 << 10
	}
	if c.FragmentSize == 0 {
		c.FragmentSize = 64 << 10
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 4
	}
}

// World is a set of communicating ranks over one fabric — the
// simulation analogue of MPI_COMM_WORLD.
type World struct {
	sim     *vtime.Sim
	fab     *fabric.Fabric
	cfg     Config
	ranks   []*Rank
	reports []*overlap.Report
	errs    []error

	// Agreement bookkeeping (accessed under the simulator's coroutine
	// discipline, so no locking is needed).
	ftRounds map[int]*ftRound
	ftFin    map[int]bool // ranks that finalized (implicit agreement votes)
	ftFinVer int          // bumped on every retirement; Agree's wait condition
}

// NewWorld creates a world spanning every node of the fabric.
func NewWorld(sim *vtime.Sim, fab *fabric.Fabric, cfg Config) *World {
	cfg.fillDefaults()
	w := &World{
		sim:     sim,
		fab:     fab,
		cfg:     cfg,
		reports: make([]*overlap.Report, fab.Nodes()),
		errs:    make([]error, fab.Nodes()),
	}
	for i := 0; i < fab.Nodes(); i++ {
		w.ranks = append(w.ranks, newRank(w, i))
	}
	return w
}

// Start spawns one proc per rank, each executing main. The simulation
// must be run (sim.Run) afterwards to execute them.
//
// A rank whose main (or finalization) aborts with an error value — the
// library's structured *CommError path — is recovered in place: the
// error is recorded (see RankErrors), the rank is torn down without
// quiescing, and the other ranks keep running, so simultaneous
// failures across the machine are all observable. Non-error panics are
// bugs and propagate.
func (w *World) Start(main func(r *Rank)) {
	for _, r := range w.ranks {
		r := r
		w.sim.Spawn(fmt.Sprintf("rank%d", r.id), func(p *vtime.Proc) {
			r.attach(p)
			defer r.recoverAbort()
			main(r)
			r.finalize()
		})
	}
}

// RankErrors returns each rank's recovered structured failure, nil
// entries for ranks that finished cleanly; valid after the simulation
// has run.
func (w *World) RankErrors() []error { return w.errs }

// Reports returns the per-rank instrumentation reports; valid after
// the simulation has run to completion, nil entries if uninstrumented.
func (w *World) Reports() []*overlap.Report { return w.reports }

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Size   int
}

// Rank is one process's handle to the library: the target of all
// communication calls. All methods must be called from the rank's own
// proc (the main function passed to Start).
type Rank struct {
	w    *World
	id   int
	proc *vtime.Proc
	// driver is the proc currently driving protocol code: normally the
	// rank's own proc, swapped to the progress thread's proc for the
	// duration of its sweeps so protocol CPU costs charge to whoever
	// actually runs them.
	driver *vtime.Proc
	nic    *fabric.NIC
	rel    *fabric.Reliable // reliable delivery, nil unless Config.Reliable
	eng    *progress.Engine

	// calls brackets every library call for the instrumentation and
	// the MPI-time accounting.
	calls overlap.Calls

	recvQ  []*Request // posted, unmatched receives, in post order
	unexpQ []inbound  // arrived, unmatched messages, in arrival order

	wrs        []wrEntry           // CQE routing: posted, uncompleted work requests
	staleWR    map[uint64]bool     // WRs abandoned at an epoch cut
	ctsWaiters map[uint64]*Request // sender reqID -> rendezvous send
	rxActive   map[uint64]*Request // receiver reqID -> rendezvous recv
	pump       []*Request          // pipelined sends with fragments to post

	ft *ftState // fault tolerance, nil unless Config.FT

	regCache  map[regKey]bool // leave_pinned registration cache
	worldComm *Comm

	colPending  []*CollRequest // nonblocking collectives in flight
	progressing bool           // a progress sweep is running (reentrancy guard)
	stalled     bool           // rank parked waiting for the thread's sweep to end

	schedules map[coll.Params]*coll.Schedule // every schedule built so far (Rank.schedule)

	reqSeq    uint64
	spare     []*Request // released requests, for newReq to reuse
	colSeq    int
	callTimes []opTime // library time by outermost call type, in first-return order
	waiting   bool
}

type regKey struct {
	peer, tag, size int
}

func newRank(w *World, id int) *Rank {
	return &Rank{
		w:          w,
		id:         id,
		nic:        w.fab.NIC(fabric.NodeID(id)),
		staleWR:    make(map[uint64]bool),
		ctsWaiters: make(map[uint64]*Request),
		rxActive:   make(map[uint64]*Request),
		regCache:   make(map[regKey]bool),
		callTimes:  make([]opTime, 0, 8),
	}
}

// attach binds the rank to its proc at spawn time and builds its
// monitor.
func (r *Rank) attach(p *vtime.Proc) {
	r.proc = p
	r.driver = p
	// Unpark unconditionally: a packet can land between the wait
	// loop's last empty poll and its Park (during a poll's own yield),
	// and the permit semantics turn the early notification into an
	// immediate wake instead of a lost one.
	r.nic.SetNotify(func() { r.proc.Unpark() })
	if rp := r.w.cfg.Reliable; rp != nil {
		r.rel = fabric.NewReliable(r.nic, *rp, func() { r.proc.Unpark() })
	}
	r.calls.Attach(p, &r.driver, r.id, r.w.cfg.Instrument, r.w.cfg.Tracer, "mpi",
		trace.Args{Peer: trace.NoPeer, Detail: r.w.cfg.Protocol.String()})
	r.eng = progress.New(r.w.sim, r.w.cfg.Progress, progress.Hooks{
		Poll: func(tp *vtime.Proc) bool {
			if r.calls.Depth() > 0 && !r.waiting {
				// The application is mid-call and will drive progress
				// itself before returning; a concurrent sweep would
				// interleave with the call's own protocol actions.
				return false
			}
			old := r.driver
			r.driver = tp
			did := r.progress()
			r.driver = old
			return did
		},
		Wake: func() { r.proc.Unpark() },
	})
	r.eng.Start(fmt.Sprintf("rank%d.progress", r.id))
	r.ftInit()
}

// finalize produces the rank's report at the end of main.
func (r *Rank) finalize() {
	// Stop the heartbeat service first: its timer chain would keep the
	// simulation alive forever, and its pings are no longer needed —
	// a finalized rank's NIC still hardware-acks, so live peers that
	// probe it are never misled.
	r.ftStopTick()
	// Announce retirement so survivors recovering from a later failure
	// do not wait for this rank's vote (its sync pokes flush in the
	// quiesce below).
	r.ftRetire()
	if len(r.colPending) > 0 || r.rel != nil {
		// Quiesce outstanding work first: un-waited nonblocking
		// collectives must run to completion (their peers' schedules
		// depend on our sends), and a blocking eager send's buffered
		// fast path can return before the acknowledgment — exiting with
		// messages outstanding would strand their retransmission timers
		// with no progress engine to serve them. Like MPI_Finalize,
		// this blocks until delivery is settled — or panics with the
		// rank's structured error when a retry budget runs out.
		r.enterOp("Finalize")
		r.waitUntil(func() bool {
			return len(r.colPending) == 0 && (r.rel == nil || r.rel.Outstanding() == 0)
		})
		r.exit()
	}
	// Stop the progress thread before the simulation drains, or its
	// parked proc would read as a deadlock.
	r.eng.Stop()
	r.w.reports[r.id] = r.calls.Report()
}

// recoverAbort intercepts the rank's structured failure panic (the
// *CommError path from a spent retry budget). The error is recorded
// for World.RankErrors, the interrupted call's accounting is unwound
// WITHOUT re-entering progress (the failure came from there, and the
// network is presumed broken — no quiescing), and the rank's report is
// still produced so the run's observations survive partial failure.
func (r *Rank) recoverAbort() {
	v := recover()
	if v == nil {
		return
	}
	err, ok := v.(error)
	if !ok {
		panic(v)
	}
	r.w.errs[r.id] = err
	r.ftStopTick()
	r.unwindCalls()
	r.eng.Stop()
	r.w.reports[r.id] = r.calls.Report()
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Now returns the rank's current (virtual) time.
func (r *Rank) Now() time.Duration { return r.proc.Now().Duration() }

// Compute models d of user computation. The network makes progress in
// the background, but the library does not: arrivals are noticed only
// at the next library call — the defining property of polling-based
// progress.
func (r *Rank) Compute(d time.Duration) { r.proc.Compute(d) }

// PushRegion and PopRegion delimit a monitored code section (see
// overlap.Monitor.PushRegion). No-ops when uninstrumented.
func (r *Rank) PushRegion(name string) { r.calls.Mon.PushRegion(name) }

// PopRegion closes the innermost monitored section.
func (r *Rank) PopRegion() { r.calls.Mon.PopRegion() }

// MPITime returns the aggregate time this rank has spent inside
// library calls, maintained independently of the instrumentation so
// uninstrumented runs can report it too.
func (r *Rank) MPITime() time.Duration { return r.calls.LibTime() }

// CallTimes returns the rank's library time broken down by the
// outermost call type ("Wait", "Send", "Allreduce", ...) — the
// quantity the paper's microbenchmarks plot as "average time spent in
// MPI_Wait". The returned map is a copy.
func (r *Rank) CallTimes() map[string]time.Duration {
	out := make(map[string]time.Duration, len(r.callTimes))
	for _, c := range r.callTimes {
		out[c.op] = c.d
	}
	return out
}

// opTime is one row of Rank.callTimes.
type opTime struct {
	op string
	d  time.Duration
}

// chargeCall books d, the time the outermost call just spent in the
// library, to its call type. A program makes a handful of call types,
// nearly always named by the same string constant, so finding the row
// is a few pointer-equal comparisons rather than a string hash per
// call. The row appears when a call of its type first returns (or is
// unwound), not when it is entered: a rank left wedged inside a call
// reports no time for it.
func (r *Rank) chargeCall(d time.Duration) {
	op := r.calls.Op
	for i := range r.callTimes {
		if c := &r.callTimes[i]; c.op == op {
			c.d += d
			return
		}
	}
	r.callTimes = append(r.callTimes, opTime{op, d})
}

// enterOp/exit bracket every public library call around the shared
// call bracket (overlap.Calls), adding the rank's own gates: a revoked
// failure and a mid-sweep progress thread hold the outermost call
// back, piggyback progress polls inside it, and its time is booked
// per call type.
func (r *Rank) enterOp(name string) {
	r.enterOpPS(name, -1, -1)
}

// enterOpPS is enterOp carrying the call's peer and message size for
// the trace span (point-to-point calls know both; collectives and
// completion calls pass -1).
func (r *Rank) enterOpPS(name string, peer int, size int64) {
	if r.calls.Depth() == 0 {
		// A revoked failure aborts the call before it starts (a safe
		// point: no protocol state is in flux).
		r.ftRaise(name)
		// If a dedicated progress thread is mid-sweep, block until it
		// finishes before entering the library: call-path protocol
		// actions must not interleave with the sweep's. This is the
		// virtual-time analogue of contending on the library's
		// progress lock. (Parking, not yielding: the sweep's next step
		// lies at a future instant, and a same-instant yield loop
		// would never let time advance.)
		for r.progressing {
			r.stalled = true
			r.proc.Park("mpi.progressGate")
			r.stalled = false
		}
	}
	if r.calls.Enter(name, peer, size) && r.eng.PollOnCall() {
		// Piggyback mode: poll on entry, inside the bracket so the
		// sweep counts as library time in the overlap bounds.
		r.progress()
	}
}

func (r *Rank) exit() {
	if r.calls.Depth() == 1 && r.eng.PollOnCall() {
		// Piggyback mode: poll on exit, still inside the bracket for
		// the same accounting reason as the entry poll.
		r.progress()
	}
	if d, outer := r.calls.Exit(); outer {
		r.chargeCall(d)
	}
}

// RelStats returns the rank's reliable-delivery counters (zero value
// when the reliability layer is disabled).
func (r *Rank) RelStats() fabric.RelStats {
	if r.rel == nil {
		return fabric.RelStats{}
	}
	return r.rel.Stats()
}

// cost returns the fabric cost model.
func (r *Rank) cost() fabric.CostModel { return r.w.fab.Cost() }

// registerBuffer charges the cost of pinning a rendezvous buffer,
// honouring the leave_pinned registration cache.
func (r *Rank) registerBuffer(peer, tag, size int) {
	if r.w.cfg.LeavePinned {
		key := regKey{peer, tag, size}
		if r.regCache[key] {
			return
		}
		r.regCache[key] = true
	}
	r.driver.Compute(r.cost().RegCost(size))
}
