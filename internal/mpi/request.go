package mpi

import (
	"fmt"

	"ovlp/internal/vtime"
)

// reqKind distinguishes send from receive requests.
type reqKind int

const (
	reqSend reqKind = iota
	reqRecv
)

// sendPhase tracks a rendezvous send's protocol position.
type sendPhase int

const (
	sendInit      sendPhase = iota
	sendRTSPosted           // request (and, pipelined, first fragment) on the wire
	sendStreaming           // pipelined: CTS received, fragments being pumped
	sendDone
)

// Request is a non-blocking operation handle, as returned by Isend and
// Irecv and consumed by Wait, Waitall and Test.
//
// A handle a caller holds is never reused: its Status stays readable
// for as long as the caller keeps it. The requests no caller ever sees
// — those of the blocking calls, the blocking collectives and the
// actions of a nonblocking collective's schedule — go back to their
// rank once they complete and no table holds them, and newReq hands
// them out again.
type Request struct {
	rank     *Rank
	kind     reqKind
	id       uint64
	released bool // on the rank's spare list: any use is a bug

	peer int // destination (send) / source or AnySource (recv)
	tag  int
	ctx  int // ctxUser or ctxCollective
	size int // bytes (send); filled on match for recv

	done   bool
	status Status

	// schedLabel names the owning nonblocking-collective schedule
	// ("Iallreduce[ring]") for transfer attribution; empty for
	// point-to-point and blocking-collective traffic.
	schedLabel string

	// receive-side state
	matched      bool
	arrivedBytes int
	rxPeerReq    uint64 // sender's request id (rendezvous), for FIN
	bulkXfer     uint64 // pipelined: receiver-side id for the post-frag0 bulk
	bulkSize     int
	bulkStart    vtime.Time // earliest fragment hardware start stamp

	// send-side state
	dataXfer    uint64 // direct rendezvous: transfer id of the remote read
	phase       sendPhase
	ctsRecvReq  uint64 // receiver's request id from CTS (pipelined)
	nextOffset  int    // next fragment byte offset to post (pipelined)
	fragsInNet  int    // posted fragments not yet completed (pipelined)
	fragsQueued bool   // request is on the rank's pump list
}

// Status returns the completion status; valid once the request has
// completed.
func (q *Request) Status() Status {
	q.check()
	return q.status
}

func (q *Request) String() string {
	k := "send"
	if q.kind == reqRecv {
		k = "recv"
	}
	return fmt.Sprintf("%s(req=%d peer=%d tag=%d size=%d done=%v)", k, q.id, q.peer, q.tag, q.size, q.done)
}

// complete marks the request finished and records its status.
func (q *Request) complete() {
	q.check()
	q.done = true
	q.status = Status{Source: q.peer, Tag: q.tag, Size: q.size}
}

// matchesEnvelope reports whether a posted receive accepts a message
// with the given source and tag.
func (q *Request) matchesEnvelope(src, tag int) bool {
	return (q.peer == AnySource || q.peer == src) && (q.tag == AnyTag || q.tag == tag)
}

// check panics if q was released: whoever still holds it would read or
// drive another operation's request once the rank hands it out again.
func (q *Request) check() {
	if q.released {
		panic("mpi: use of released request")
	}
}

// newReq returns a fresh request, reusing a released one when the rank
// has one. Ids come from reqSeq either way, so a stale lookup by id
// (a straggling CTS or FIN) never finds a reused request.
func (r *Rank) newReq(kind reqKind, peer, tag, size int) *Request {
	r.reqSeq++
	var q *Request
	if n := len(r.spare); n > 0 {
		q, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		q = new(Request)
	}
	*q = Request{rank: r, kind: kind, id: r.reqSeq, peer: peer, tag: tag, size: size}
	return q
}

// release hands a completed request no caller can see back to its rank.
// The protocol tables drop a request before completing it, and a
// buffered send leaves nothing pointing at its request, so once done
// only the releasing caller holds it.
func (r *Rank) release(q *Request) {
	q.check()
	if !q.done {
		panic("mpi: release of an incomplete request")
	}
	*q = Request{released: true}
	r.spare = append(r.spare, q)
}

// await blocks until q — a request no caller sees — completes, releases
// it and returns its status.
func (r *Rank) await(q *Request) Status {
	r.waitUntil(func() bool { return q.done })
	st := q.status
	r.release(q)
	return st
}

// awaitBoth is await for two requests; it returns b's status.
func (r *Rank) awaitBoth(a, b *Request) Status {
	r.waitUntil(func() bool { return a.done && b.done })
	st := b.status
	r.release(a)
	r.release(b)
	return st
}
