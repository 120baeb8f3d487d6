package mpi

import (
	"fmt"
	"slices"

	"ovlp/internal/fabric"
	"ovlp/internal/vtime"
)

// The xfer* helpers route transfer observations to the right monitor
// entry point: the classic XFER_BEGIN/XFER_END pair normally, or the
// precise XferExact path when the world runs with hardware time-stamps
// (Config.HWTimestamps).

func (r *Rank) xferBegin(id uint64, size int) {
	if !r.w.cfg.HWTimestamps {
		r.calls.Mon.XferBegin(id, size)
	}
}

func (r *Rank) xferEnd(id uint64, size int) {
	if !r.w.cfg.HWTimestamps {
		r.calls.Mon.XferEnd(id, size)
	}
}

func (r *Rank) xferExact(id uint64, size int, start, end vtime.Time) {
	if r.w.cfg.HWTimestamps {
		r.calls.Mon.XferExact(id, size, start.Duration(), end.Duration())
	}
}

// Message contexts separate user point-to-point traffic from
// library-internal collective traffic, so wildcard receives never
// match collective packets. Nonblocking collective schedules use their
// own context so their tag space (sequence, round, chunk) never
// collides with the blocking collectives'.
const (
	ctxUser = iota
	ctxCollective
	ctxSchedule
)

// Wire messages. Header bytes are folded into the fabric's per-packet
// overhead, so control packets travel with size 0 and data packets
// with exactly the user payload size — keeping the ground-truth
// transfer log aligned with the calibration table. Each message type
// below rides in the packet as a fabric.Header value (its header method
// packs it, the matching ...Of function unpacks it); only the
// fault-tolerance revocation, whose dead set has no fixed size, is
// boxed in the packet's Payload.

// Header kinds of the library's messages (fabric.Header.Kind; 0 is a
// packet with no header).
const (
	hdrEager uint8 = iota + 1
	hdrRTS
	hdrCTS
	hdrFrag
	hdrFin
	hdrPing
	hdrSync
)

// eagerMsg carries a whole short message.
type eagerMsg struct {
	src, tag, ctx, size int
	xferID              uint64
}

func (m eagerMsg) header() fabric.Header {
	return fabric.Header{Kind: hdrEager, W: [fabric.HeaderWords]uint64{
		uint64(m.src), uint64(m.tag), uint64(m.ctx), uint64(m.size), m.xferID}}
}

func eagerOf(h *fabric.Header) eagerMsg {
	w := &h.W
	return eagerMsg{src: int(w[0]), tag: int(w[1]), ctx: int(w[2]), size: int(w[3]), xferID: w[4]}
}

// rtsMsg is the rendezvous request-to-send. Under PipelinedRDMA it
// carries the first fragment of user data (frag0 > 0); under
// DirectRDMARead it is a pure control packet advertising the pinned
// source buffer, and readXfer is the transfer id the receiver's RDMA
// read will use.
type rtsMsg struct {
	src, tag, ctx, size int
	sendReq             uint64
	frag0               int
	frag0Xfer           uint64
	readXfer            uint64
}

func (m rtsMsg) header() fabric.Header {
	return fabric.Header{Kind: hdrRTS, W: [fabric.HeaderWords]uint64{
		uint64(m.src), uint64(m.tag), uint64(m.ctx), uint64(m.size),
		m.sendReq, uint64(m.frag0), m.frag0Xfer, m.readXfer}}
}

func rtsOf(h *fabric.Header) rtsMsg {
	w := &h.W
	return rtsMsg{src: int(w[0]), tag: int(w[1]), ctx: int(w[2]), size: int(w[3]),
		sendReq: w[4], frag0: int(w[5]), frag0Xfer: w[6], readXfer: w[7]}
}

// ctsMsg is the receiver's clear-to-send acknowledging a pipelined
// rendezvous; recvReq keys subsequent fragments to the receive.
type ctsMsg struct {
	sendReq, recvReq uint64
}

func (m ctsMsg) header() fabric.Header {
	return fabric.Header{Kind: hdrCTS, W: [fabric.HeaderWords]uint64{m.sendReq, m.recvReq}}
}

func ctsOf(h *fabric.Header) ctsMsg { return ctsMsg{sendReq: h.W[0], recvReq: h.W[1]} }

// fragMsg is the immediate notification of one pipelined RDMA-write
// fragment landing in the receive buffer.
type fragMsg struct {
	recvReq uint64
	size    int
}

func (m fragMsg) header() fabric.Header {
	return fabric.Header{Kind: hdrFrag, W: [fabric.HeaderWords]uint64{m.recvReq, uint64(m.size)}}
}

func fragOf(h *fabric.Header) fragMsg { return fragMsg{recvReq: h.W[0], size: int(h.W[1])} }

// finMsg tells the sender a direct RDMA read has drained its buffer.
// When hardware time-stamps are in use, the receiver echoes the read's
// physical interval so the sender can account the transfer precisely.
type finMsg struct {
	sendReq    uint64
	start, end vtime.Time
}

func (m finMsg) header() fabric.Header {
	return fabric.Header{Kind: hdrFin, W: [fabric.HeaderWords]uint64{m.sendReq, uint64(m.start), uint64(m.end)}}
}

func finOf(h *fabric.Header) finMsg {
	return finMsg{sendReq: h.W[0], start: vtime.Time(h.W[1]), end: vtime.Time(h.W[2])}
}

// inbound is an unexpected-queue entry: a message that arrived before
// a matching receive was posted.
type inbound struct {
	src, tag, ctx, size int
	eager               bool
	xferID              uint64 // eager data transfer id
	rts                 rtsMsg // the request-to-send, unless eager
}

// wrKind routes completion-queue entries to protocol actions.
type wrKind int

const (
	wrControl wrKind = iota
	wrEager
	wrFrag0
	wrFrag
	wrRead
)

// pendingWR remembers what a posted work request was for.
type pendingWR struct {
	kind     wrKind
	req      *Request
	xferID   uint64
	size     int
	attempts int // failed completions so far (RDMA repost accounting)
}

// wrEntry is one row of Rank.wrs, the table that routes completions: a
// work request the rank posted and has not yet seen complete.
type wrEntry struct {
	id uint64
	pendingWR
}

// trackWR notes what work request id was posted for, until its
// completion is polled.
func (r *Rank) trackWR(id uint64, pw pendingWR) {
	r.wrs = append(r.wrs, wrEntry{id, pw})
}

// takeWR removes and returns what work request id was posted for. The
// table is a slice in post order, searched from the front: a rank
// usually has one to three work requests outstanding (LU's pipelined
// sweeps burst to 130) and they complete in nearly the order they were
// posted — 99 % of LU's completions match the first row — so there is
// nothing to hash, and nothing to grow once the rank has seen its peak.
func (r *Rank) takeWR(id uint64) (pendingWR, bool) {
	for i := range r.wrs {
		if r.wrs[i].id == id {
			pw := r.wrs[i].pendingWR
			r.wrs = slices.Delete(r.wrs, i, i+1)
			return pw, true
		}
	}
	return pendingWR{}, false
}

// progress is the library's polling progress engine: drain arrived
// packets and completions, pump pipelined sends, then advance any
// pending nonblocking-collective schedules. Historically it ran only
// inside library calls — never while the application computes — which
// is the property that shapes every overlap result in the paper. With
// a progress engine configured (Config.Progress) it may also run
// driven by the dedicated progress thread, in which case r.driver is
// that thread's proc; the guard makes the two drivers mutually
// exclusive without locks (the simulator's coroutine discipline means
// only one runs at a time, but a Compute inside a sweep yields, and
// the other driver must not start a nested sweep in that window).
// It reports whether any protocol state advanced.
func (r *Rank) progress() bool {
	if r.progressing {
		return false
	}
	r.progressing = true
	defer func() {
		r.progressing = false
		if r.stalled {
			// The application parked on the progress gate while this
			// (thread-driven) sweep ran; release it.
			r.proc.Unpark()
		}
	}()
	did := false
	for {
		pkt := r.nic.PollInbox(r.driver)
		if pkt == nil {
			break
		}
		did = true
		if r.rel.Accept(pkt) {
			r.handlePacket(pkt)
		}
	}
	for {
		cqe := r.nic.PollCQ(r.driver)
		if cqe == nil {
			break
		}
		did = true
		if r.rel != nil && r.rel.TakeWR(cqe.WRID) {
			// Tracked reliable send: completion is acknowledgment-driven.
			continue
		}
		r.handleCQE(cqe)
	}
	if r.rel != nil {
		d, err := r.rel.RunDue(r.driver)
		if err != nil {
			r.deliveryFail(err)
		}
		if d {
			did = true
		}
	}
	if r.ft != nil {
		r.ftMaybePing()
	}
	if r.pumpPipelines() {
		did = true
	}
	if r.advanceColl() {
		did = true
	}
	return did
}

// waitUntil drives progress until cond holds. When nothing can
// advance, the rank parks until its NIC signals new work; the
// resulting detection time equals what a spinning poll loop would
// observe, without simulating each empty poll.
func (r *Rank) waitUntil(cond func() bool) {
	for !cond() {
		// Safe point: between sweeps, with no protocol state in flux, a
		// revoked failure aborts the interrupted call.
		r.ftRaise(r.calls.Op)
		if r.progress() {
			continue
		}
		if r.progressing {
			// The dedicated progress thread is mid-sweep (our progress
			// call guard-skipped); park until it finishes — its closing
			// unpark wakes us, possibly with cond now satisfied.
			r.stalled = true
			r.proc.Park("mpi.progressGate")
			r.stalled = false
			continue
		}
		if cond() || r.nic.Pending() || (r.rel != nil && r.rel.HasDue()) {
			continue
		}
		r.waiting = true
		r.proc.Park("mpi.waitUntil")
		r.waiting = false
	}
}

// sendCtl posts a control packet to dst — reliably (sequenced and
// acknowledged) when the reliability layer is on, as a bare send
// otherwise.
func (r *Rank) sendCtl(dst fabric.NodeID, h fabric.Header) {
	if r.rel != nil {
		r.rel.Send(r.driver, dst, 0, 0, h, "send", nil)
		return
	}
	wr := r.nic.SendHeader(r.driver, dst, 0, 0, h)
	r.trackWR(wr, pendingWR{kind: wrControl})
}

// xferAck is the rank as the acknowledgment handler of a reliable data
// send no request waits on (a buffered eager send, a first fragment):
// the acknowledgment only ends the transfer.
type xferAck Rank

func (a *xferAck) Acked(xferID uint64, size int, start, end vtime.Time) {
	r := (*Rank)(a)
	r.xferEnd(xferID, size)
	r.xferExact(xferID, size, start, end)
}

// sendAck is a non-buffered eager send's request as its reliable
// send's acknowledgment handler: the acknowledgment ends the transfer
// and completes the request.
type sendAck Request

func (a *sendAck) Acked(xferID uint64, size int, start, end vtime.Time) {
	q := (*Request)(a)
	(*xferAck)(q.rank).Acked(xferID, size, start, end)
	if !q.done {
		q.complete()
	}
}

// startSend launches the protocol for a send request. Caller must be
// inside enter/exit. buffered marks a blocking-call fast path: an
// eager send is then considered complete once the data is copied out
// and posted (the user buffer is reusable), with the local completion
// reaped lazily by a later progress invocation — the behaviour of
// MPI_Send's short-message path on InfiniBand MPIs. Non-blocking sends
// complete at the local CQE, as in Open MPI. A buffered send is done
// when startSend returns, so nothing it leaves behind (the completion
// row, the acknowledgment handler) points at req: the caller may
// release it at once.
func (r *Rank) startSend(req *Request, ctx int, buffered bool) {
	ctx = r.ectx(ctx)
	c := r.cost()
	cfg := &r.w.cfg
	dst := fabric.NodeID(req.peer)
	if req.size <= cfg.EagerThreshold {
		// Eager: copy into a pre-registered bounce buffer and ship it.
		r.driver.Compute(c.Copy(req.size))
		xid := r.w.fab.NewXferID()
		r.w.fab.TagXfer(xid, "eager")
		r.xferBegin(xid, req.size)
		r.noteSchedXfer(req.schedLabel, xid)
		h := eagerMsg{src: r.id, tag: req.tag, ctx: ctx, size: req.size, xferID: xid}.header()
		waiter := req
		if buffered {
			waiter = nil
		}
		if r.rel != nil {
			// Reliable: completion and the transfer-end observation are
			// driven by the delivering attempt's acknowledgment, so
			// retransmissions attribute to library time and never count
			// as extra transfers.
			var ack fabric.AckHandler = (*xferAck)(r)
			if waiter != nil {
				ack = (*sendAck)(waiter)
			}
			r.rel.Send(r.driver, dst, req.size, xid, h, "send", ack)
		} else {
			wr := r.nic.SendHeader(r.driver, dst, req.size, xid, h)
			r.trackWR(wr, pendingWR{kind: wrEager, req: waiter, xferID: xid, size: req.size})
		}
		if buffered {
			req.complete()
		}
		return
	}
	switch cfg.Protocol {
	case PipelinedRDMA:
		// Request-to-send carries the first (eager-limit-sized)
		// fragment; the rest waits for the receiver's acknowledgment.
		frag0 := cfg.EagerThreshold
		if frag0 < 1 {
			frag0 = 1
		}
		r.driver.Compute(c.Copy(frag0))
		xid := r.w.fab.NewXferID()
		r.w.fab.TagXfer(xid, "pipelined-frag0")
		r.xferBegin(xid, frag0)
		r.noteSchedXfer(req.schedLabel, xid)
		h := rtsMsg{
			src: r.id, tag: req.tag, ctx: ctx, size: req.size,
			sendReq: req.id, frag0: frag0, frag0Xfer: xid,
		}.header()
		if r.rel != nil {
			r.rel.Send(r.driver, dst, frag0, xid, h, "send", (*xferAck)(r))
		} else {
			wr := r.nic.SendHeader(r.driver, dst, frag0, xid, h)
			r.trackWR(wr, pendingWR{kind: wrFrag0, xferID: xid, size: frag0})
		}
		req.nextOffset = frag0
		req.phase = sendRTSPosted
		r.ctsWaiters[req.id] = req
	case DirectRDMARead:
		// Pin the source buffer and advertise it; the receiver pulls.
		r.registerBuffer(req.peer, req.tag, req.size)
		xid := r.w.fab.NewXferID()
		r.w.fab.TagXfer(xid, "direct-read")
		req.dataXfer = xid
		r.xferBegin(xid, req.size)
		r.noteSchedXfer(req.schedLabel, xid)
		r.sendCtl(dst, rtsMsg{
			src: r.id, tag: req.tag, ctx: ctx, size: req.size,
			sendReq: req.id, readXfer: xid,
		}.header())
		req.phase = sendRTSPosted
		r.ctsWaiters[req.id] = req
	default:
		panic(fmt.Sprintf("mpi: unknown protocol %v", cfg.Protocol))
	}
}

// postRecv posts a receive, matching the unexpected queue first.
func (r *Rank) postRecv(src, tag, ctx int) *Request {
	return r.postRecvLabeled(src, tag, ctx, "")
}

// postRecvLabeled is postRecv carrying a collective-schedule label for
// transfer attribution.
func (r *Rank) postRecvLabeled(src, tag, ctx int, label string) *Request {
	ctx = r.ectx(ctx)
	req := r.newReq(reqRecv, src, tag, 0)
	req.ctx = ctx
	req.schedLabel = label
	if i := r.findUnexpected(src, tag, ctx); i >= 0 {
		ib := r.unexpQ[i]
		r.unexpQ = append(r.unexpQ[:i], r.unexpQ[i+1:]...)
		if ib.eager {
			// Copy out of the unexpected buffer; the transfer-end
			// observation was already logged at arrival.
			req.peer, req.tag, req.size = ib.src, ib.tag, ib.size
			r.noteSchedXfer(label, ib.xferID)
			r.driver.Compute(r.cost().Copy(ib.size))
			req.complete()
		} else {
			r.handleMatchedRTS(req, &ib.rts, true, nil)
		}
		return req
	}
	r.recvQ = append(r.recvQ, req)
	return req
}

// findUnexpected returns the index of the first unexpected message
// matching (src, tag, ctx), or -1.
func (r *Rank) findUnexpected(src, tag, ctx int) int {
	for i, ib := range r.unexpQ {
		if ib.ctx != ctx {
			continue
		}
		if (src == AnySource || src == ib.src) && (tag == AnyTag || tag == ib.tag) {
			return i
		}
	}
	return -1
}

// matchPostedRecv removes and returns the first posted receive
// matching an arrived envelope, or nil.
func (r *Rank) matchPostedRecv(src, tag, ctx int) *Request {
	for i, req := range r.recvQ {
		if req.ctx == ctx && req.matchesEnvelope(src, tag) {
			r.recvQ = append(r.recvQ[:i], r.recvQ[i+1:]...)
			return req
		}
	}
	return nil
}

// handlePacket dispatches one arrived packet through the protocol
// state machines.
func (r *Rank) handlePacket(pkt *fabric.Packet) {
	c := r.cost()
	switch pkt.Hdr.Kind {
	case hdrEager:
		msg := eagerOf(&pkt.Hdr)
		if req := r.matchPostedRecv(msg.src, msg.tag, msg.ctx); req != nil {
			req.peer, req.tag, req.size = msg.src, msg.tag, msg.size
			r.noteSchedXfer(req.schedLabel, msg.xferID)
			r.driver.Compute(c.Copy(msg.size)) // bounce buffer -> user buffer
			r.xferEnd(msg.xferID, msg.size)
			r.xferExact(msg.xferID, msg.size, pkt.Start, pkt.End)
			req.complete()
			return
		}
		// Unexpected: stash in a temporary buffer. The transfer has
		// ended as far as this process can ever know.
		r.driver.Compute(c.Copy(msg.size))
		r.xferEnd(msg.xferID, msg.size)
		r.xferExact(msg.xferID, msg.size, pkt.Start, pkt.End)
		r.unexpQ = append(r.unexpQ, inbound{
			src: msg.src, tag: msg.tag, ctx: msg.ctx, size: msg.size,
			eager: true, xferID: msg.xferID,
		})
	case hdrRTS:
		msg := rtsOf(&pkt.Hdr)
		if req := r.matchPostedRecv(msg.src, msg.tag, msg.ctx); req != nil {
			r.handleMatchedRTS(req, &msg, false, pkt)
			return
		}
		if msg.frag0 > 0 {
			// Buffer the piggybacked first fragment.
			r.driver.Compute(c.Copy(msg.frag0))
			r.xferEnd(msg.frag0Xfer, msg.frag0)
			r.xferExact(msg.frag0Xfer, msg.frag0, pkt.Start, pkt.End)
		}
		r.unexpQ = append(r.unexpQ, inbound{
			src: msg.src, tag: msg.tag, ctx: msg.ctx, size: msg.size, rts: msg,
		})
	case hdrPing:
		// Liveness ping: the hardware ack it provoked is the answer;
		// Accept already noted the peer alive in the sweep.
	case hdrSync:
		// Agreement poke: the arrival alone woke the rank, which
		// re-reads the vote pool from its wait condition.
	case hdrCTS:
		msg := ctsOf(&pkt.Hdr)
		req := r.ctsWaiters[msg.sendReq]
		if req == nil {
			if r.ft != nil {
				return // straggler from an abandoned epoch
			}
			panic("mpi: CTS for unknown send request")
		}
		delete(r.ctsWaiters, msg.sendReq)
		req.ctsRecvReq = msg.recvReq
		req.phase = sendStreaming
		r.queuePump(req)
		r.checkSendDone(req)
	case hdrFrag:
		msg := fragOf(&pkt.Hdr)
		req := r.rxActive[msg.recvReq]
		if req == nil {
			if r.ft != nil {
				return // straggler from an abandoned epoch
			}
			panic("mpi: fragment for unknown receive request")
		}
		req.arrivedBytes += msg.size
		if req.bulkStart == 0 || pkt.Start < req.bulkStart {
			req.bulkStart = pkt.Start
		}
		if req.arrivedBytes >= req.size {
			delete(r.rxActive, msg.recvReq)
			if req.bulkXfer != 0 {
				r.xferEnd(req.bulkXfer, req.bulkSize)
				r.xferExact(req.bulkXfer, req.bulkSize, req.bulkStart, pkt.End)
			}
			req.complete()
		}
	case hdrFin:
		msg := finOf(&pkt.Hdr)
		req := r.ctsWaiters[msg.sendReq]
		if req == nil {
			if r.ft != nil {
				return // straggler from an abandoned epoch
			}
			panic("mpi: FIN for unknown send request")
		}
		delete(r.ctsWaiters, msg.sendReq)
		r.xferEnd(req.dataXfer, req.size)
		r.xferExact(req.dataXfer, req.size, msg.start, msg.end)
		req.phase = sendDone
		req.complete()
	case 0:
		msg, ok := pkt.Payload.(revokeMsg)
		if !ok {
			panic(fmt.Sprintf("mpi: unknown packet payload %T", pkt.Payload))
		}
		r.ftRevoked(msg)
	default:
		panic(fmt.Sprintf("mpi: unknown packet header kind %d", pkt.Hdr.Kind))
	}
}

// handleMatchedRTS continues a rendezvous once the receive is matched.
// frag0Buffered indicates the first fragment was already copied and
// accounted when the RTS sat in the unexpected queue; pkt is the
// just-arrived RTS packet (nil on the unexpected-queue path).
func (r *Rank) handleMatchedRTS(req *Request, rts *rtsMsg, frag0Buffered bool, pkt *fabric.Packet) {
	req.matched = true
	req.peer, req.tag, req.size = rts.src, rts.tag, rts.size
	req.rxPeerReq = rts.sendReq
	switch r.w.cfg.Protocol {
	case PipelinedRDMA:
		if rts.frag0 > 0 {
			r.noteSchedXfer(req.schedLabel, rts.frag0Xfer)
			r.driver.Compute(r.cost().Copy(rts.frag0)) // into user buffer
			if !frag0Buffered {
				r.xferEnd(rts.frag0Xfer, rts.frag0)
				r.xferExact(rts.frag0Xfer, rts.frag0, pkt.Start, pkt.End)
			}
			req.arrivedBytes += rts.frag0
		}
		r.registerBuffer(rts.src, rts.tag, rts.size)
		r.rxActive[req.id] = req
		// The receiver schedules the remaining fragments by
		// acknowledging; from its library's viewpoint the post-frag0
		// bulk is one data transfer beginning at the acknowledgment
		// and ending when the last fragment lands.
		if req.bulkSize = rts.size - rts.frag0; req.bulkSize > 0 {
			req.bulkXfer = r.w.fab.NewXferID()
			r.w.fab.TagXfer(req.bulkXfer, "pipelined-bulk")
			r.xferBegin(req.bulkXfer, req.bulkSize)
			r.noteSchedXfer(req.schedLabel, req.bulkXfer)
		}
		r.sendCtl(fabric.NodeID(rts.src), ctsMsg{sendReq: rts.sendReq, recvReq: req.id}.header())
		if req.arrivedBytes >= req.size {
			delete(r.rxActive, req.id)
			req.complete()
		}
	case DirectRDMARead:
		r.registerBuffer(rts.src, rts.tag, rts.size)
		r.xferBegin(rts.readXfer, rts.size)
		r.noteSchedXfer(req.schedLabel, rts.readXfer)
		wr := r.nic.RDMARead(r.driver, fabric.NodeID(rts.src), rts.size, rts.readXfer)
		r.trackWR(wr, pendingWR{kind: wrRead, req: req, xferID: rts.readXfer, size: rts.size})
	}
}

// handleCQE dispatches one local completion.
func (r *Rank) handleCQE(cqe *fabric.CQE) {
	pw, ok := r.takeWR(cqe.WRID)
	if !ok {
		if r.staleWR[cqe.WRID] {
			// Work request abandoned at an epoch cut: its completion
			// (success or failure) is inert.
			delete(r.staleWR, cqe.WRID)
			return
		}
		panic("mpi: completion for unknown work request")
	}
	if cqe.Status != fabric.StatusOK {
		r.handleFailedCQE(pw, cqe)
		return
	}
	switch pw.kind {
	case wrControl:
		// Control packet left the NIC; nothing to do.
	case wrEager:
		r.xferEnd(pw.xferID, pw.size)
		r.xferExact(pw.xferID, pw.size, cqe.Start, cqe.End)
		if pw.req != nil && !pw.req.done { // nil: a buffered send, done at its post
			pw.req.complete()
		}
	case wrFrag0:
		r.xferEnd(pw.xferID, pw.size)
		r.xferExact(pw.xferID, pw.size, cqe.Start, cqe.End)
	case wrFrag:
		r.xferEnd(pw.xferID, pw.size)
		r.xferExact(pw.xferID, pw.size, cqe.Start, cqe.End)
		pw.req.fragsInNet--
		r.queuePump(pw.req)
		r.checkSendDone(pw.req)
	case wrRead:
		// Receiver side of direct rendezvous: data is in place; the
		// FIN echoes the hardware stamps for the sender's accounting.
		r.xferEnd(pw.xferID, pw.size)
		r.xferExact(pw.xferID, pw.size, cqe.Start, cqe.End)
		r.sendCtl(fabric.NodeID(pw.req.peer),
			finMsg{sendReq: pw.req.rxPeerReq, start: cqe.Start, end: cqe.End}.header())
		pw.req.complete()
	}
}

// handleFailedCQE reposts a failed RDMA data operation with backoff,
// or fails the rank with a structured error once the retry budget is
// spent (or when no reliability layer is configured to spend one).
func (r *Rank) handleFailedCQE(pw pendingWR, cqe *fabric.CQE) {
	attempts := pw.attempts + 1 // this completion was attempt #attempts
	fail := func(dst fabric.NodeID, op string) {
		r.commFail(&fabric.DeliveryError{Dst: dst, Op: op, Attempts: attempts})
	}
	switch pw.kind {
	case wrFrag:
		dst := fabric.NodeID(pw.req.peer)
		if r.rel == nil {
			fail(dst, cqe.Kind.String())
			return
		}
		req, xid, size := pw.req, pw.xferID, pw.size
		err := r.rel.Repost(dst, cqe.Kind.String(), xid, attempts, func(p *vtime.Proc) {
			wr := r.nic.RDMAWriteHeader(p, dst, size, xid, fragMsg{recvReq: req.ctsRecvReq, size: size}.header())
			r.trackWR(wr, pendingWR{kind: wrFrag, req: req, xferID: xid, size: size, attempts: attempts})
		})
		if err != nil {
			r.deliveryFail(err)
		}
	case wrRead:
		src := fabric.NodeID(pw.req.peer)
		if r.rel == nil {
			fail(src, cqe.Kind.String())
			return
		}
		req, xid, size := pw.req, pw.xferID, pw.size
		err := r.rel.Repost(src, cqe.Kind.String(), xid, attempts, func(p *vtime.Proc) {
			wr := r.nic.RDMARead(p, src, size, xid)
			r.trackWR(wr, pendingWR{kind: wrRead, req: req, xferID: xid, size: size, attempts: attempts})
		})
		if err != nil {
			r.deliveryFail(err)
		}
	default:
		// Send-class losses are silent (handled by retransmission); an
		// error completion here means a misconfigured fabric.
		panic(fmt.Sprintf("mpi: unexpected %v completion for %v work request", cqe.Status, pw.kind))
	}
}

// queuePump marks a streaming pipelined send as having work for the
// fragment pump. A send with every fragment posted has none, and stays
// off the list: it may complete, and be released, before the next pump.
func (r *Rank) queuePump(req *Request) {
	if req.fragsQueued || req.phase != sendStreaming || req.nextOffset >= req.size {
		return
	}
	req.fragsQueued = true
	r.pump = append(r.pump, req)
}

// pumpPipelines posts pending fragments for streaming sends, limited
// by the credit window. Like every protocol action, it runs only from
// progress — i.e. only while the application is inside the library.
func (r *Rank) pumpPipelines() bool {
	cfg := &r.w.cfg
	did := false
	kept := r.pump[:0]
	for _, req := range r.pump {
		for req.nextOffset < req.size && req.fragsInNet < cfg.MaxOutstanding {
			fsize := cfg.FragmentSize
			if rem := req.size - req.nextOffset; fsize > rem {
				fsize = rem
			}
			xid := r.w.fab.NewXferID()
			r.w.fab.TagXfer(xid, "pipelined-frag")
			r.xferBegin(xid, fsize)
			wr := r.nic.RDMAWriteHeader(r.driver, fabric.NodeID(req.peer), fsize, xid,
				fragMsg{recvReq: req.ctsRecvReq, size: fsize}.header())
			r.trackWR(wr, pendingWR{kind: wrFrag, req: req, xferID: xid, size: fsize})
			req.nextOffset += fsize
			req.fragsInNet++
			did = true
		}
		if req.nextOffset < req.size {
			kept = append(kept, req)
		} else {
			req.fragsQueued = false
		}
	}
	r.pump = kept
	return did
}

// checkSendDone completes a pipelined send once every fragment has
// been posted and locally completed.
func (r *Rank) checkSendDone(req *Request) {
	if req.phase == sendStreaming && req.nextOffset >= req.size && req.fragsInNet == 0 {
		req.phase = sendDone
		req.complete()
	}
}
