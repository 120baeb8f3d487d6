// Package fabric models a user-level networking fabric in the style of
// InfiniBand verbs, on top of the vtime simulation kernel.
//
// Each node owns a NIC with a DMA engine, a completion queue (CQ) and
// an inbox of arrived packets. The defining property reproduced here —
// the one the paper's measurement framework exists to cope with — is
// that data transfer is initiated and progressed by the NIC, not the
// host: once a work request is posted, the wire transfer proceeds in
// the background in virtual time, and the host learns about it only by
// polling the CQ or inbox.
//
// Three operations are provided, mirroring the primitives the paper's
// protocols are built from:
//
//   - Send: a channel send carrying a library-defined payload,
//     delivered to the destination inbox (used for control packets and
//     eager data).
//   - RDMAWrite: one-sided write; the destination host is not involved
//     unless an immediate payload is attached, which lands in its inbox
//     after the data.
//   - RDMARead: one-sided read; the remote NIC serves the data without
//     any remote host involvement.
//
// The fabric keeps a ground-truth log of the physical transfer
// interval of every user-data operation. Real hardware cannot offer
// this; the simulator uses it to validate the instrumentation's
// min/max overlap bounds in tests. A run that will not read the log
// says so (RetainTruth) and pays nothing for it.
package fabric

import (
	"fmt"
	"time"

	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// NodeID identifies a node (and its NIC) in the fabric.
type NodeID int

// OpKind distinguishes the verb that produced a completion.
type OpKind int

const (
	OpSend OpKind = iota
	OpRDMAWrite
	OpRDMARead
)

func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "send"
	case OpRDMAWrite:
		return "rdma-write"
	case OpRDMARead:
		return "rdma-read"
	}
	return "invalid"
}

// CQStatus is the completion status of a work request.
type CQStatus int

const (
	// StatusOK means the request completed successfully.
	StatusOK CQStatus = iota
	// StatusRetryExceeded means a reliable-transport operation (RDMA
	// read/write) failed after the HCA's link-level retries; no data
	// moved. Surfaced only under an active FaultPlan.
	StatusRetryExceeded
)

func (s CQStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRetryExceeded:
		return "retry-exceeded"
	}
	return "invalid"
}

// CQE is a completion-queue entry: the NIC's notification that a
// locally posted work request has completed.
//
// Start and End carry the NIC's hardware time-stamps for the physical
// transfer interval. Real HCAs of the paper's era could not expose
// these (the gap the bounds algorithm exists to bridge); libraries
// built for precise characterization may consume them (see
// mpi.Config.HWTimestamps), implementing the refinement the paper
// names as future work.
type CQE struct {
	WRID   uint64 // work-request id returned by the posting call
	Kind   OpKind
	Status CQStatus
	XferID uint64 // transfer id given at post time (0 if none)
	Size   int    // payload bytes
	Start  vtime.Time
	End    vtime.Time
}

// Packet is a message that arrived at a node: a Send payload or the
// immediate notification of a remote RDMA write. Start and End are the
// NIC's hardware time-stamps of the physical transfer (see CQE).
//
// A library's message rides in Hdr, a value the fabric copies, or — for
// what does not fit one — in Payload, boxed.
type Packet struct {
	From    NodeID
	Kind    OpKind // OpSend or OpRDMAWrite (immediate)
	Size    int    // payload bytes carried
	XferID  uint64
	Seq     uint64 // reliable-delivery sequence number (0 = unsequenced)
	Hdr     Header // library-defined value header (Kind 0 = none)
	Payload any    // library-defined boxed header or body descriptor
	Start   vtime.Time
	End     vtime.Time
}

// HeaderWords is the number of words a Header carries.
const HeaderWords = 8

// Header is a fixed-size header a library defines: a kind of its own
// choosing (0 means no header) and up to HeaderWords words. The fabric
// copies it with the packet and never reads it, so a message that fits
// one crosses the fabric — duplicated, retransmitted or not — without a
// heap allocation, and no two deliveries share a buffer.
type Header struct {
	Kind uint8
	W    [HeaderWords]uint64
}

// CostModel parameterizes the timing of the fabric. The defaults
// returned by DefaultCostModel approximate the paper's platform: an
// 8 Gbit/s InfiniBand network with Mellanox MT23108 HCAs on PCI-X and
// 2.4 GHz Xeon hosts.
type CostModel struct {
	// LinkLatency is the one-way wire + switch propagation delay.
	LinkLatency time.Duration
	// Bandwidth is the per-link bandwidth in bytes per second.
	Bandwidth float64
	// PostOverhead is the host CPU cost of posting one work request.
	PostOverhead time.Duration
	// PollOverhead is the host CPU cost of one CQ/inbox poll.
	PollOverhead time.Duration
	// DMAStartup is the NIC-side delay between a post and the wire
	// transfer beginning (descriptor fetch, doorbell processing).
	DMAStartup time.Duration
	// PacketOverhead is the fixed per-message wire cost (headers,
	// CRC), added to the serialization time of every transfer.
	PacketOverhead time.Duration
	// MemCopyBandwidth is the host memcpy bandwidth in bytes per
	// second, used by libraries for bounce-buffer copies.
	MemCopyBandwidth float64
	// RegBase and RegPerPage model memory registration (pinning):
	// a fixed cost plus a per-4KiB-page cost, charged to the host by
	// libraries that pin buffers on the fly.
	RegBase    time.Duration
	RegPerPage time.Duration
}

// DefaultCostModel returns parameters approximating the paper's
// testbed (see package comment).
func DefaultCostModel() CostModel {
	return CostModel{
		LinkLatency:      3 * time.Microsecond,
		Bandwidth:        900e6, // ~7.2 Gbit/s effective on the 8 Gbit/s link
		PostOverhead:     250 * time.Nanosecond,
		PollOverhead:     100 * time.Nanosecond,
		DMAStartup:       500 * time.Nanosecond,
		PacketOverhead:   200 * time.Nanosecond,
		MemCopyBandwidth: 1.5e9,
		RegBase:          25 * time.Microsecond,
		RegPerPage:       700 * time.Nanosecond,
	}
}

// Wire returns the serialization time of size bytes on the link.
func (c CostModel) Wire(size int) time.Duration {
	return c.PacketOverhead + time.Duration(float64(size)/c.Bandwidth*1e9)
}

// Copy returns the host memcpy time for size bytes.
func (c CostModel) Copy(size int) time.Duration {
	return time.Duration(float64(size) / c.MemCopyBandwidth * 1e9)
}

// RegCost returns the cost of registering (pinning) size bytes.
func (c CostModel) RegCost(size int) time.Duration {
	pages := (size + 4095) / 4096
	return c.RegBase + time.Duration(pages)*c.RegPerPage
}

// TransferTime returns the end-to-end time of moving size bytes
// between two hosts once the transfer starts: serialization plus
// propagation. This is what an a-priori ping-pong characterization
// observes per direction.
func (c CostModel) TransferTime(size int) time.Duration {
	return c.Wire(size) + c.LinkLatency
}

// Transfer is a ground-truth record of one physical user-data
// transfer: the interval during which the payload actually occupied
// the wire, as only the simulator can know it.
type Transfer struct {
	XferID uint64
	Src    NodeID // node whose NIC sourced the data
	Dst    NodeID
	Size   int
	Start  vtime.Time // wire transfer begins
	End    vtime.Time // last byte arrives at Dst
	// Phase is the protocol-phase tag the communication library
	// attached via TagXfer ("" when untagged).
	Phase string
}

// Fabric is a set of NICs connected by a full-crossbar switch with
// per-NIC egress serialization: a NIC transmits one payload at a time,
// so concurrent transfers from one node queue behind each other, while
// transfers from different nodes proceed in parallel.
type Fabric struct {
	sim   *vtime.Sim
	cost  CostModel
	nics  []*NIC
	xseq  uint64
	wrseq uint64

	// The ground-truth log, kept while someone will read Transfers
	// (keepTruth), and the protocol-phase tag of every transfer id —
	// ids are NewXferID's, sequential from 1, so the tags are a slice
	// indexed by id — kept while the log or a tracer's wire spans will
	// carry them.
	keepTruth bool
	truth     []Transfer
	phases    []string

	faults    *faultState      // nil on a perfect network
	truthSeen map[seenKey]bool // sequenced deliveries already recorded

	crashAt    map[NodeID]vtime.Time // crash-stop plan: node -> death instant
	crashStats CrashStats
	onCrash    func(NodeID)

	events freeList[wireEvent] // recycled wire events (events.go)

	tr *trace.Tracer // nil = untraced

	// record's instruments, looked up in the tracer's registry at the
	// first traced transfer (not in SetTrace: an idle fabric must leave
	// no instruments behind) and reset by SetTrace.
	mTransfers, mWireBytes *trace.Counter
	mXferSize              *trace.Histogram
}

// New creates a fabric of n nodes.
func New(sim *vtime.Sim, n int, cost CostModel) *Fabric {
	f := &Fabric{sim: sim, cost: cost, keepTruth: true, truthSeen: make(map[seenKey]bool)}
	f.nics = make([]*NIC, n)
	for i := range f.nics {
		f.nics[i] = &NIC{fab: f, id: NodeID(i)}
	}
	return f
}

// Cost returns the fabric's cost model.
func (f *Fabric) Cost() CostModel { return f.cost }

// SetFaults installs a fault plan; call before the simulation starts.
// A nil or inactive plan leaves the fabric perfect (and on the exact
// pre-fault code path). The plan is validated, including that every
// configured link and stall names an existing node.
func (f *Fabric) SetFaults(plan *FaultPlan) error {
	if !plan.Active() {
		return nil
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	if err := plan.CheckNodes(len(f.nics)); err != nil {
		return err
	}
	f.faults = newFaultState(*plan)
	return nil
}

// FaultStats returns the injected-fault counters (zero value when no
// plan is active).
func (f *Fabric) FaultStats() FaultStats {
	if f.faults == nil {
		return FaultStats{}
	}
	return f.faults.stats
}

// SetTrace attaches a tracer (nil to detach). Every ground-truth
// transfer then emits a wire span on the source NIC's track — exactly
// the oracle intervals, so a trace shows true wire activity against
// host-observed call time — and fault injections and reliable-delivery
// activity emit instants. NIC-side emissions cost nothing in virtual
// time: they model the free visibility only the simulator has.
func (f *Fabric) SetTrace(t *trace.Tracer) {
	f.tr = t
	f.mTransfers, f.mWireBytes, f.mXferSize = nil, nil, nil
	for _, n := range f.nics {
		n.track = nil
	}
}

// nicTrack returns node id's trace track (nil when untraced). The
// track is created on first use — export order is creation order — and
// then cached on the NIC, so a wire event pays neither for formatting
// the name nor for the tracer's index lookup.
func (f *Fabric) nicTrack(id NodeID) *trace.Track {
	if f.tr == nil {
		return nil
	}
	n := f.nics[id]
	if n.track == nil {
		n.track = f.tr.Track(trace.GroupNIC, int(id), fmt.Sprintf("nic%d", id))
	}
	return n.track
}

// Nodes returns the number of nodes.
func (f *Fabric) Nodes() int { return len(f.nics) }

// NIC returns node id's network interface.
func (f *Fabric) NIC(id NodeID) *NIC {
	if int(id) < 0 || int(id) >= len(f.nics) {
		panic(fmt.Sprintf("fabric: no such node %d (valid nodes are 0..%d)", id, len(f.nics)-1))
	}
	return f.nics[id]
}

// NewXferID allocates a fresh nonzero transfer id, used to correlate
// library instrumentation with ground truth.
func (f *Fabric) NewXferID() uint64 {
	f.xseq++
	return f.xseq
}

// TagXfer labels transfer id, which NewXferID issued, with the protocol
// phase that produced it ("eager", "pipelined-frag", "direct-read",
// ...). The tag rides on the ground-truth log entries and the exported
// wire spans, and is dropped on the spot when the run has neither;
// tagging an id that never reaches the wire (a receiver-side virtual
// transfer) is harmless.
func (f *Fabric) TagXfer(id uint64, phase string) {
	if id == 0 || phase == "" || !f.observed() {
		return
	}
	if id > f.xseq {
		panic(fmt.Sprintf("fabric: TagXfer(%d): NewXferID has issued only %d ids", id, f.xseq))
	}
	for uint64(len(f.phases)) <= id {
		f.phases = append(f.phases, "")
	}
	f.phases[id] = phase
}

// RetainTruth says whether anyone will read Transfers when the run is
// over. A fabric retains the log unless told otherwise; cluster runs
// pass their RecordTruth setting, so a run that asked for no ground
// truth builds none.
func (f *Fabric) RetainTruth(on bool) { f.keepTruth = on }

// observed reports whether a transfer's record has a reader: the
// ground-truth log or a tracer's wire spans.
func (f *Fabric) observed() bool { return f.keepTruth || f.tr != nil }

// Transfers returns the ground-truth log of all user-data transfers
// recorded so far, in completion order (nil after RetainTruth(false)).
func (f *Fabric) Transfers() []Transfer { return f.truth }

func (f *Fabric) record(t Transfer) {
	if t.XferID != 0 && f.observed() {
		if t.XferID < uint64(len(f.phases)) {
			t.Phase = f.phases[t.XferID]
		}
		if f.keepTruth {
			f.truth = append(f.truth, t)
		}
		if f.tr != nil {
			// The wire span is the oracle interval verbatim; tests assert
			// the trace's NIC spans equal Transfers() exactly.
			f.nicTrack(t.Src).Span("wire", "xfer", t.Start, t.End,
				trace.Args{Peer: int(t.Dst), Size: int64(t.Size), ID: t.XferID, Phase: t.Phase})
			if f.mXferSize == nil {
				m := f.tr.Metrics()
				f.mTransfers = m.Counter("fabric.transfers")
				f.mWireBytes = m.Counter("fabric.wire_bytes")
				f.mXferSize = m.Histogram("fabric.xfer_size", xferSizeBounds)
			}
			f.mTransfers.Inc()
			f.mWireBytes.Add(int64(t.Size))
			f.mXferSize.Observe(int64(t.Size))
		}
	}
}

// xferSizeBounds are the transfer-size histogram buckets, matching the
// default overlap bin bounds so the two views line up. Read-only: every
// traced fabric's histogram shares it.
var xferSizeBounds = []int64{1 << 10, 8 << 10, 64 << 10, 512 << 10, 4 << 20}

// NIC is one node's network interface: a DMA engine plus completion
// and receive queues. All posting and polling methods must be called
// from the owning node's proc; they charge the corresponding host
// overheads to that proc.
type NIC struct {
	fab *Fabric
	id  NodeID

	cq    fifo[CQE]
	inbox fifo[Packet]

	// egressFree is the time at which the NIC's transmit engine
	// becomes idle; transfers posted earlier queue until then.
	egressFree vtime.Time

	notify func() // invoked (in event context) when cq or inbox gains an entry

	track *trace.Track // Fabric.nicTrack's cache; nil until first traced event
}

// SetNotify registers fn to be called, in simulation event context,
// whenever a CQE or packet arrives at this NIC. Libraries use it to
// unpark a rank blocked inside a library call. fn must not block.
func (n *NIC) SetNotify(fn func()) { n.notify = fn }

func (n *NIC) wake() {
	if n.notify != nil {
		n.notify()
	}
}

// fifo is a queue popped by advancing a head index. It rewinds to the
// start of its backing array whenever it empties — every poller drains
// until empty — so after warm-up neither push nor pop allocates.
type fifo[T any] struct {
	items  []T
	head   int
	polled T // the entry pop handed out last
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) empty() bool { return q.head == len(q.items) }

// pop moves the oldest entry into q.polled and returns its address,
// or nil when the queue is empty.
func (q *fifo[T]) pop() *T {
	if q.empty() {
		return nil
	}
	var zero T
	q.polled, q.items[q.head] = q.items[q.head], zero
	if q.head++; q.empty() {
		q.items, q.head = q.items[:0], 0
	}
	return &q.polled
}

func (n *NIC) pushCQE(e CQE) {
	n.cq.push(e)
	n.wake()
}

func (n *NIC) pushPacket(p Packet) {
	n.inbox.push(p)
	n.wake()
}

// PollCQ charges one poll overhead to p and returns the oldest
// completion, or nil if the CQ is empty. The completion lives in a
// slot the NIC reuses: it is valid until the next PollCQ on this NIC,
// whatever arrives meanwhile. No caller keeps it longer — mpi and
// armci handle each completion, copying out the fields they need
// (Reliable.TakeWR takes only the WRID), before they poll again; copy
// the CQE to keep one.
func (n *NIC) PollCQ(p *vtime.Proc) *CQE {
	p.Compute(n.fab.cost.PollOverhead)
	return n.cq.pop()
}

// PollInbox charges one poll overhead to p and returns the oldest
// arrived packet, or nil if none. Like PollCQ's result the packet is
// valid until the next PollInbox on this NIC: mpi.handlePacket copies
// what it queues as unexpected (envelope fields, the RTS by value) and
// Reliable.duplicate records only (From, Seq).
func (n *NIC) PollInbox(p *vtime.Proc) *Packet {
	p.Compute(n.fab.cost.PollOverhead)
	return n.inbox.pop()
}

// Pending reports whether the NIC holds undelivered completions or
// packets; it costs nothing (used by wait loops before parking).
func (n *NIC) Pending() bool { return !n.cq.empty() || !n.inbox.empty() }

// reserveEgress occupies this NIC's transmit engine for the given wire
// time starting no earlier than earliest, and returns the interval
// during which the data is on the wire.
func (n *NIC) reserveEgress(earliest vtime.Time, wire time.Duration) (start, end vtime.Time) {
	start = earliest
	if n.egressFree > start {
		start = n.egressFree
	}
	end = start.Add(wire)
	n.egressFree = end
	return start, end
}

// Send posts a channel send of size payload bytes to dst. The host is
// charged PostOverhead. The payload lands in dst's inbox one link
// latency after serialization finishes; a CQE appears locally when the
// data has left the NIC. Returns the work-request id.
func (n *NIC) Send(p *vtime.Proc, dst NodeID, size int, xferID uint64, payload any) uint64 {
	return n.transmit(p, dst, OpSend, size, n.fab.cost.Wire(size), xferID, Header{}, payload, true, 0)
}

// SendHeader is Send carrying the value header h instead of a boxed
// payload.
func (n *NIC) SendHeader(p *vtime.Proc, dst NodeID, size int, xferID uint64, h Header) uint64 {
	return n.transmit(p, dst, OpSend, size, n.fab.cost.Wire(size), xferID, h, nil, true, 0)
}

// RDMAWrite posts a one-sided write of size bytes to dst. If payload
// is non-nil it is delivered to dst's inbox as an immediate
// notification after the data arrives; otherwise the remote host
// observes nothing. Returns the work-request id.
func (n *NIC) RDMAWrite(p *vtime.Proc, dst NodeID, size int, xferID uint64, payload any) uint64 {
	return n.transmit(p, dst, OpRDMAWrite, size, n.fab.cost.Wire(size), xferID, Header{}, payload, payload != nil, 0)
}

// RDMAWriteHeader is RDMAWrite whose immediate notification is the
// value header h.
func (n *NIC) RDMAWriteHeader(p *vtime.Proc, dst NodeID, size int, xferID uint64, h Header) uint64 {
	return n.transmit(p, dst, OpRDMAWrite, size, n.fab.cost.Wire(size), xferID, h, nil, true, 0)
}

// RDMAWriteStrided posts a vectored one-sided write of count segments
// of block bytes each: one work request, but each segment pays its own
// per-packet wire overhead, as non-unit-stride transfers do on real
// HCAs. Returns the work-request id.
func (n *NIC) RDMAWriteStrided(p *vtime.Proc, dst NodeID, count, block int, xferID uint64, payload any) uint64 {
	if count < 1 {
		panic("fabric: strided write needs at least one segment")
	}
	wire := time.Duration(count) * n.fab.cost.Wire(block)
	return n.transmit(p, dst, OpRDMAWrite, count*block, wire, xferID, Header{}, payload, payload != nil, 0)
}

// transmit posts a Send or RDMA-write work request; seq is its
// reliable-delivery sequence number (0 = unsequenced). With no active
// fault plan it follows the exact pre-fault code path. Under faults:
// the egress start honours stall windows (a permanent stall swallows
// the request — no CQE, no delivery); the wire time honours degraded
// bandwidth; a dropped Send-class packet vanishes silently after an OK
// completion, while a dropped RDMA op surfaces as a StatusRetryExceeded
// completion; duplicates and jitter perturb delivery. Sequenced packets
// are acknowledged by the destination NIC hardware on every delivery.
func (n *NIC) transmit(p *vtime.Proc, dst NodeID, kind OpKind, size int, wire time.Duration, xferID uint64, h Header, payload any, deliver bool, seq uint64) uint64 {
	f := n.fab
	p.Compute(f.cost.PostOverhead)
	f.wrseq++
	wr := f.wrseq
	if f.crashed(n.id, f.sim.Now()) {
		// Dead NIC: the post is swallowed — no CQE, nothing on the wire.
		f.crashStats.SwallowedTx++
		return wr
	}
	target := f.NIC(dst)
	earliest := f.sim.Now().Add(f.cost.DMAStartup)
	var drop, dup bool
	var jitter time.Duration
	if fs := f.faults; fs != nil {
		var blackhole bool
		earliest, blackhole = fs.stallAdjust(n.id, earliest)
		if blackhole {
			f.nicTrack(n.id).Instant("fault", "blackhole", f.sim.Now(),
				trace.Args{Peer: int(dst), Size: int64(size), ID: xferID})
			return wr
		}
		drop, dup, jitter = fs.decide(n.id, dst, kind == OpSend, f.sim.Now())
		wire = fs.scaleWire(n.id, dst, wire, f.sim.Now())
		if f.tr != nil {
			if drop {
				f.nicTrack(n.id).Instant("fault", "drop", f.sim.Now(),
					trace.Args{Peer: int(dst), Size: int64(size), ID: xferID})
			}
			if dup {
				f.nicTrack(n.id).Instant("fault", "dup", f.sim.Now(),
					trace.Args{Peer: int(dst), Size: int64(size), ID: xferID})
			}
			if jitter > 0 {
				f.nicTrack(n.id).Instant("fault", "jitter", f.sim.Now(),
					trace.Args{Peer: int(dst), Size: int64(size), ID: xferID, Detail: jitter.String()})
			}
		}
	}
	start, end := n.reserveEgress(earliest, wire)
	arrive := end.Add(f.cost.LinkLatency + jitter)
	cqe := CQE{WRID: wr, Kind: kind, XferID: xferID, Size: size, Start: start, End: arrive}
	if drop && kind != OpSend {
		// Reliable-transport op: the HCA's retries are exhausted; the
		// failure surfaces as an error completion when the transfer
		// would have arrived. No data moved.
		cqe.Status = StatusRetryExceeded
		f.schedule(stepCQE, n, arrive).cqe = cqe
		return wr
	}
	f.schedule(stepCQE, n, end).cqe = cqe
	if drop {
		// Unreliable datagram loss: the data left the NIC (hence the OK
		// completion above) and vanished in the network.
		return wr
	}
	e := f.schedule(stepDeliver, target, arrive)
	e.pkt = Packet{From: n.id, Kind: kind, Size: size, XferID: xferID, Seq: seq, Hdr: h, Payload: payload, Start: start, End: arrive}
	e.deliver = deliver
	if dup {
		// The copy trails the original by one link latency.
		d := f.schedule(stepDuplicate, target, arrive.Add(f.cost.LinkLatency))
		d.pkt, d.deliver = e.pkt, deliver
		d.pkt.End = d.at
	}
	return wr
}

// deliverAt runs at a packet's arrival instant (pkt.End) on target:
// ground-truth recording (first delivery of a given (src, seq) only),
// inbox delivery, and hardware acknowledgment of sequenced packets.
func (f *Fabric) deliverAt(target *NIC, pkt *Packet, deliver, original bool) {
	src, dst, arrive := pkt.From, target.id, pkt.End
	if f.crashed(dst, arrive) {
		// The destination died: the bytes vanish at the dead NIC —
		// no ground truth (the data was never received), no inbox
		// delivery, and no hardware acknowledgment. The sender's
		// reliability layer will time out, which is how failures are
		// detected.
		f.crashStats.DroppedRx++
		return
	}
	first := original
	if pkt.Seq != 0 {
		k := seenKey{src, pkt.Seq}
		if f.truthSeen[k] {
			first = false
		} else {
			f.truthSeen[k] = true
		}
	}
	if first {
		f.record(Transfer{XferID: pkt.XferID, Src: src, Dst: dst, Size: pkt.Size, Start: pkt.Start, End: arrive})
	}
	if deliver {
		target.pushPacket(*pkt)
	}
	if pkt.Seq != 0 {
		f.sendAck(dst, src, pkt.Seq, pkt.Start, arrive)
	}
}

// sendAck transmits the destination NIC's hardware acknowledgment of a
// sequenced packet back to the sender. Acks are tiny control frames:
// they bypass egress serialization, but they do cross the reverse link
// and are subject to its loss and jitter (an ack lost to the network is
// what forces a spurious — duplicate-suppressed — retransmission).
func (f *Fabric) sendAck(from, to NodeID, seq uint64, start, end vtime.Time) {
	var jitter time.Duration
	if fs := f.faults; fs != nil {
		if _, blackhole := fs.stallAdjust(from, f.sim.Now()); blackhole {
			return
		}
		var drop bool
		drop, _, jitter = fs.decide(from, to, false, f.sim.Now())
		if drop {
			f.nicTrack(from).Instant("fault", "ack-drop", f.sim.Now(),
				trace.Args{Peer: int(to), ID: seq})
			return
		}
	}
	e := f.schedule(stepAck, f.nics[to], f.sim.Now().Add(f.cost.Wire(0)+f.cost.LinkLatency+jitter))
	e.pkt = Packet{From: from, Kind: OpSend, Seq: seq, Payload: ackFrame{}, Start: start, End: end}
}

// RDMARead posts a one-sided read of size bytes from src into local
// memory. The request travels to src, whose NIC serves the data with
// no host involvement there; a CQE appears locally when the last byte
// has arrived. Returns the work-request id.
func (n *NIC) RDMARead(p *vtime.Proc, src NodeID, size int, xferID uint64) uint64 {
	f := n.fab
	p.Compute(f.cost.PostOverhead)
	f.wrseq++
	wr := f.wrseq
	if f.crashed(n.id, f.sim.Now()) {
		f.crashStats.SwallowedTx++
		return wr
	}
	f.NIC(src) // a bad server panics at the post
	// Request packet: DMA startup + a header-sized hop to src.
	reqArrive := f.sim.Now().Add(f.cost.DMAStartup + f.cost.Wire(0) + f.cost.LinkLatency)
	e := f.schedule(stepServe, n, reqArrive)
	e.src, e.cqe = src, CQE{WRID: wr, Kind: OpRDMARead, XferID: xferID, Size: size}
	return wr
}

// serveRead runs when the RDMA read e's request reaches its server and
// reschedules e as the read's next step, or reports false when the
// request vanished.
func (f *Fabric) serveRead(e *wireEvent) bool {
	src, dst, size, xferID := e.src, e.to.id, e.cqe.Size, e.cqe.XferID
	if f.crashed(src, f.sim.Now()) {
		// The serving node is dead: the transport's retries exhaust
		// and the failure surfaces as an error completion at the
		// requester after a round trip. No data moved.
		f.crashStats.DroppedRx++
		e.step, e.at = stepServerDead, f.sim.Now().Add(f.cost.Wire(0)+f.cost.LinkLatency)
		f.sim.Schedule(e.at.Sub(f.sim.Now()), e)
		return true
	}
	// The remote NIC sources the data on its egress link. Faults are
	// modelled on this serve leg (the data direction src→dst): stall
	// windows on the serving NIC, degraded bandwidth and jitter on
	// the link, and loss as a reliable-transport failure —
	// StatusRetryExceeded at the requester, no data movement.
	serve := f.sim.Now()
	wire := f.cost.Wire(size)
	var drop bool
	var jitter time.Duration
	if fs := f.faults; fs != nil {
		var blackhole bool
		serve, blackhole = fs.stallAdjust(src, serve)
		if blackhole {
			f.nicTrack(src).Instant("fault", "blackhole", f.sim.Now(),
				trace.Args{Peer: int(dst), Size: int64(size), ID: xferID})
			return false
		}
		drop, _, jitter = fs.decide(src, dst, false, f.sim.Now())
		wire = fs.scaleWire(src, dst, wire, f.sim.Now())
		if drop {
			f.nicTrack(src).Instant("fault", "drop", f.sim.Now(),
				trace.Args{Peer: int(dst), Size: int64(size), ID: xferID})
			e.cqe.Status = StatusRetryExceeded
		}
	}
	start, end := f.nics[src].reserveEgress(serve, wire)
	e.step, e.at = stepReadData, end.Add(f.cost.LinkLatency+jitter)
	e.cqe.Start, e.cqe.End = start, e.at
	f.sim.Schedule(e.at.Sub(f.sim.Now()), e)
	return true
}
