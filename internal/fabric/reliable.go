package fabric

import (
	"fmt"
	"math"
	"time"

	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// This file implements software reliable delivery over the (possibly
// faulty) fabric, in the style of a user-level reliable datagram layer:
// per-sender sequence numbers, receiver-hardware acknowledgments,
// sender-side retransmission on virtual-time timeouts with exponential
// backoff and a retry cap, and receiver-side duplicate suppression.
//
// Each communicating endpoint owns one Reliable instance. Senders call
// Send instead of NIC.Send; the progress engine passes every arriving
// packet through Accept (which settles acknowledgments and drops
// duplicates), swallows the tracked sends' CQEs through TakeWR, and
// drives expired retransmission timers through RunDue. RDMA data
// operations do not use sequence numbers — their loss surfaces as an
// error completion — but share the same backoff/cap policy through
// Repost.
//
// Acknowledgments are generated by the destination NIC hardware at
// delivery time (see Fabric.deliver), not by the destination host, so a
// message is acknowledgeable even while its receiver computes — the
// property that lets a retransmission scheme coexist with a
// polling-only progress engine.

// NoRetries is the MaxRetries sentinel that disables retransmission
// entirely: delivery fails on the first timeout. It exists because the
// zero value of MaxRetries selects the default budget, which made "no
// retransmissions" unrepresentable.
const NoRetries = math.MinInt32

// ReliableParams tunes the retransmission machinery.
type ReliableParams struct {
	// Timeout is the base retransmission timeout added on top of twice
	// the message's estimated transfer time (default 50µs).
	Timeout time.Duration
	// Backoff multiplies the timeout after each retry (default 2).
	Backoff float64
	// MaxRetries caps retransmissions per message. Zero selects the
	// default budget of 8; the NoRetries sentinel disables
	// retransmission entirely (delivery fails on the first timeout);
	// any other negative value means an unlimited budget — delivery
	// never gives up, so a genuinely dead peer stalls the sender until
	// the simulation deadline.
	MaxRetries int
}

func (p *ReliableParams) fillDefaults() {
	if p.Timeout == 0 {
		p.Timeout = 50 * time.Microsecond
	}
	if p.Backoff == 0 {
		p.Backoff = 2
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 8
	}
}

// DeliveryError reports that reliable delivery to a peer gave up:
// either the retry budget was exhausted while the peer was otherwise
// responsive (a lost exchange), or the peer never acknowledged anything
// (unreachable).
type DeliveryError struct {
	Dst      NodeID
	Op       string
	Attempts int
	// PeerSilent is true when no acknowledgment or packet has ever been
	// observed from Dst — the peer looks dead, not just lossy.
	PeerSilent bool
}

func (e *DeliveryError) Error() string {
	if e.PeerSilent {
		return fmt.Sprintf("fabric: %s to node %d: no response after %d attempt(s), peer unreachable", e.Op, e.Dst, e.Attempts)
	}
	return fmt.Sprintf("fabric: %s to node %d: retry budget exhausted after %d attempt(s)", e.Op, e.Dst, e.Attempts)
}

// RelStats counts the reliability layer's activity.
type RelStats struct {
	Sent          int // sequenced first transmissions
	Retransmits   int // timeout-driven resends
	Reposts       int // RDMA ops reposted after an error completion
	AcksReceived  int
	DupSuppressed int // duplicate packets discarded at the receiver
}

type seenKey struct {
	src NodeID
	seq uint64
}

// AckHandler learns that a reliable send was acknowledged: xferID and
// size are what Send was given, start and end the delivering attempt's
// physical transfer interval. It runs inside the owning proc's progress
// engine (from Accept), once; the layer forgets it before the call.
type AckHandler interface {
	Acked(xferID uint64, size int, start, end vtime.Time)
}

// relEntry is one pending action on the due list: an unacknowledged
// sequenced send awaiting retransmission, or a deferred RDMA repost.
// It is its own timer's Handler.
type relEntry struct {
	rl *Reliable
	// sequenced-send state (fire == nil)
	seq     uint64
	dst     NodeID
	size    int
	xferID  uint64
	hdr     Header
	payload any
	op      string
	ack     AckHandler

	// repost action (non-nil for deferred RDMA reposts)
	fire func(p *vtime.Proc)

	attempts int
	rto      time.Duration
	timer    vtime.Timer
	dead     bool
	gen      int // endpoint generation at creation; Abandon bumps it
}

// Reliable is one endpoint's reliable-delivery state: sender-side
// outstanding messages and timers, and receiver-side duplicate
// tracking.
type Reliable struct {
	nic    *NIC
	params ReliableParams
	wake   func() // unparks the owning proc when a timer expires

	nextSeq     uint64
	outstanding map[uint64]*relEntry
	due         fifo[*relEntry] // expired entries, drained by RunDue
	swallow     map[uint64]bool
	seen        map[seenKey]bool
	peerAlive   map[NodeID]bool
	stats       RelStats
	gen         int                // bumped by Abandon; stale entries are discarded
	spare       freeList[relEntry] // acknowledged sends whose timer never fired
}

// NewReliable creates the reliability endpoint for nic. wake is invoked
// in simulation event context whenever a retransmission timer expires,
// so a parked proc can resume and drive RunDue from its progress
// engine.
func NewReliable(nic *NIC, params ReliableParams, wake func()) *Reliable {
	params.fillDefaults()
	return &Reliable{
		nic:         nic,
		params:      params,
		wake:        wake,
		outstanding: make(map[uint64]*relEntry),
		swallow:     make(map[uint64]bool),
		seen:        make(map[seenKey]bool),
		peerAlive:   make(map[NodeID]bool),
	}
}

// Stats returns a copy of the endpoint's counters.
func (rl *Reliable) Stats() RelStats { return rl.stats }

// track returns this endpoint's NIC trace track (nil when the fabric
// is untraced); the reliability machinery draws its instants there,
// next to the wire spans of the traffic it repairs.
func (rl *Reliable) track() *trace.Track { return rl.nic.fab.nicTrack(rl.nic.id) }

// rtoFor returns the initial retransmission timeout for a message of
// size bytes: a round trip of the estimated transfer time plus the
// configured slack.
func (rl *Reliable) rtoFor(size int) time.Duration {
	return rl.params.Timeout + 2*rl.nic.fab.cost.TransferTime(size)
}

func (rl *Reliable) arm(e *relEntry) {
	e.timer = rl.nic.fab.sim.AfterCancel(e.rto, e)
}

// Fire queues the expired entry for RunDue and wakes the owner.
func (e *relEntry) Fire() {
	if e.dead {
		return
	}
	rl := e.rl
	rl.due.push(e)
	if rl.wake != nil {
		rl.wake()
	}
}

// Send transmits a sequenced, acknowledged packet carrying the value
// header h to dst and tracks it for retransmission. ack, if non-nil, is
// told when the acknowledgment is processed. Returns the sequence
// number.
func (rl *Reliable) Send(p *vtime.Proc, dst NodeID, size int, xferID uint64, h Header, op string, ack AckHandler) uint64 {
	return rl.send(p, relEntry{dst: dst, size: size, xferID: xferID, hdr: h, op: op, ack: ack})
}

// SendPayload is Send of a size-0 control packet whose message is the
// boxed payload, with no acknowledgment handler: the path of messages
// that do not fit a Header.
func (rl *Reliable) SendPayload(p *vtime.Proc, dst NodeID, payload any, op string) uint64 {
	return rl.send(p, relEntry{dst: dst, payload: payload, op: op})
}

// send posts m's first transmission from an entry drawn from the spare
// list.
func (rl *Reliable) send(p *vtime.Proc, m relEntry) uint64 {
	rl.nextSeq++
	m.rl, m.seq, m.rto, m.gen = rl, rl.nextSeq, rl.rtoFor(m.size), rl.gen
	e := rl.spare.get()
	*e = m
	rl.outstanding[e.seq] = e
	wr := rl.nic.transmit(p, e.dst, OpSend, e.size, rl.nic.fab.cost.Wire(e.size), e.xferID, e.hdr, e.payload, true, e.seq)
	rl.swallow[wr] = true
	rl.stats.Sent++
	rl.arm(e)
	return e.seq
}

// Accept filters one packet from the NIC inbox and reports whether it
// is for the library. An acknowledgment is consumed here; any other
// packet is evidence that its sender is responsive, refining the
// timeout-vs-unreachable diagnosis; a sequenced packet this endpoint
// has already delivered is dropped. A nil Reliable accepts everything.
func (rl *Reliable) Accept(pkt *Packet) bool {
	if rl == nil {
		return true
	}
	if _, ok := pkt.Payload.(ackFrame); ok {
		rl.handleAck(pkt)
		return false
	}
	rl.peerAlive[pkt.From] = true
	return !rl.duplicate(pkt)
}

// handleAck settles the outstanding message an acknowledgment names
// (a.Seq), cancels its timer and tells its AckHandler the delivering
// attempt's transfer interval (a.Start, a.End). Acks of unknown
// sequence numbers (duplicates, or acks of already-settled
// retransmissions) are ignored.
func (rl *Reliable) handleAck(a *Packet) {
	e, ok := rl.outstanding[a.Seq]
	if !ok {
		return
	}
	delete(rl.outstanding, a.Seq)
	e.dead = true
	rl.peerAlive[e.dst] = true
	rl.stats.AcksReceived++
	rl.track().Instant("rel", "ack", rl.nic.fab.sim.Now(),
		trace.Args{Peer: int(e.dst), Size: int64(e.size), ID: e.seq})
	ack, xferID, size := e.ack, e.xferID, e.size
	e.ack = nil
	if e.timer.Stop() { // never fired, so on no due list: nothing else holds e
		rl.spare.put(e)
	}
	if ack != nil {
		ack.Acked(xferID, size, a.Start, a.End)
	}
}

// duplicate reports whether pkt is a sequenced packet this endpoint has
// already delivered, and records first deliveries. Unsequenced packets
// are never duplicates.
func (rl *Reliable) duplicate(pkt *Packet) bool {
	if pkt.Seq == 0 {
		return false
	}
	k := seenKey{pkt.From, pkt.Seq}
	if rl.seen[k] {
		rl.stats.DupSuppressed++
		rl.track().Instant("rel", "dup-suppressed", rl.nic.fab.sim.Now(),
			trace.Args{Peer: int(pkt.From), Size: int64(pkt.Size), ID: pkt.Seq})
		return true
	}
	rl.seen[k] = true
	return false
}

// TakeWR reports whether wrID belongs to a tracked reliable send, whose
// completion the library must ignore (completion is ack-driven).
func (rl *Reliable) TakeWR(wrID uint64) bool {
	if rl.swallow[wrID] {
		delete(rl.swallow, wrID)
		return true
	}
	return false
}

// HasDue reports whether expired timers await RunDue; wait loops must
// not park while it is true.
func (rl *Reliable) HasDue() bool { return !rl.due.empty() }

// Outstanding returns the number of sequenced sends not yet
// acknowledged. A library must quiesce this to zero before its process
// exits, or the unsettled messages' retransmission timers would fire
// with no progress engine left to serve them.
func (rl *Reliable) Outstanding() int { return len(rl.outstanding) }

// maxAttempts converts the MaxRetries knob into a total-attempts cap.
func (rl *Reliable) maxAttempts() int {
	switch {
	case rl.params.MaxRetries == NoRetries:
		return 1 // no retransmission: the first timeout is fatal
	case rl.params.MaxRetries < 0:
		return math.MaxInt // unlimited budget
	default:
		return 1 + rl.params.MaxRetries
	}
}

// backoffRTO returns rto scaled for the next attempt.
func (rl *Reliable) backoffRTO(rto time.Duration) time.Duration {
	return time.Duration(float64(rto) * rl.params.Backoff)
}

// RunDue retransmits every message whose timer has expired (and fires
// deferred reposts), charging the posting overheads to p. It reports
// whether anything was done, and returns a *DeliveryError when a
// message has exhausted its retry budget — the caller decides how that
// surfaces (the mpi and armci libraries convert it into their
// structured error types).
func (rl *Reliable) RunDue(p *vtime.Proc) (bool, error) {
	did := false
	for !rl.due.empty() {
		e := *rl.due.pop()
		if e.dead && e.gen == rl.gen {
			// Acknowledged after its timer fired: the due list held it
			// last.
			rl.spare.put(e)
			continue
		}
		if e.dead || e.gen != rl.gen {
			continue
		}
		did = true
		if e.fire != nil {
			rl.stats.Reposts++
			e.dead = true
			rl.track().Instant("rel", "repost", rl.nic.fab.sim.Now(),
				trace.Args{Peer: int(e.dst), ID: e.xferID, Detail: e.op})
			e.fire(p)
			continue
		}
		if e.attempts+1 >= rl.maxAttempts() {
			e.dead = true
			delete(rl.outstanding, e.seq)
			rl.track().Instant("rel", "give-up", rl.nic.fab.sim.Now(),
				trace.Args{Peer: int(e.dst), Size: int64(e.size), ID: e.seq, Detail: e.op})
			return did, &DeliveryError{
				Dst:        e.dst,
				Op:         e.op,
				Attempts:   e.attempts + 1,
				PeerSilent: !rl.peerAlive[e.dst],
			}
		}
		e.attempts++
		rl.stats.Retransmits++
		// The instant carries the payload's transfer id (not the
		// reliability sequence number), so offline analysis can charge
		// the retransmission to the transfer it stretched.
		rl.track().Instant("rel", "retransmit", rl.nic.fab.sim.Now(),
			trace.Args{Peer: int(e.dst), Size: int64(e.size), ID: e.xferID, Detail: e.op})
		wr := rl.nic.transmit(p, e.dst, OpSend, e.size, rl.nic.fab.cost.Wire(e.size), e.xferID, e.hdr, e.payload, true, e.seq)
		rl.swallow[wr] = true
		e.rto = rl.backoffRTO(e.rto)
		rl.arm(e)
	}
	return did, nil
}

// Repost schedules fire to repost a failed RDMA operation after the
// attempt's backoff delay, or returns a *DeliveryError when the retry
// budget is spent. attempts counts completions already failed (≥ 1);
// xferID is the data transfer the repost stretches (0 if none), carried
// on the repost instant for offline attribution.
func (rl *Reliable) Repost(dst NodeID, op string, xferID uint64, attempts int, fire func(p *vtime.Proc)) error {
	if attempts >= rl.maxAttempts() {
		return &DeliveryError{Dst: dst, Op: op, Attempts: attempts, PeerSilent: !rl.peerAlive[dst]}
	}
	delay := rl.params.Timeout
	for i := 1; i < attempts; i++ {
		delay = rl.backoffRTO(delay)
	}
	e := &relEntry{rl: rl, dst: dst, op: op, xferID: xferID, attempts: attempts, rto: delay, fire: fire, gen: rl.gen}
	rl.arm(e)
	return nil
}

// Abandon cancels every outstanding sequenced send, pending
// retransmission and deferred repost without surfacing errors: the
// endpoint moves to a new generation, so stale timers, late
// acknowledgments and already-queued due entries from the old
// generation are silently discarded. A fault-tolerant library calls it
// while revoking communication after an agreed peer failure —
// in-flight traffic from the pre-failure epoch must neither complete
// nor fail operations of the new epoch. Receiver-side duplicate
// suppression is retained, so old-generation packets that straggle in
// are still recognized. Returns the number of abandoned operations.
func (rl *Reliable) Abandon() int {
	n := len(rl.outstanding)
	for seq, e := range rl.outstanding {
		e.dead = true
		e.timer.Stop()
		delete(rl.outstanding, seq)
	}
	for _, e := range rl.due.items[rl.due.head:] {
		if !e.dead && e.gen == rl.gen && e.fire != nil {
			n++ // pending reposts die too
		}
	}
	rl.due = fifo[*relEntry]{items: rl.due.items[:0]}
	rl.gen++
	return n
}
