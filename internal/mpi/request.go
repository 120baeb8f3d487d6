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
type Request struct {
	rank *Rank
	kind reqKind
	id   uint64

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
func (q *Request) Status() Status { return q.status }

func (q *Request) String() string {
	k := "send"
	if q.kind == reqRecv {
		k = "recv"
	}
	return fmt.Sprintf("%s(req=%d peer=%d tag=%d size=%d done=%v)", k, q.id, q.peer, q.tag, q.size, q.done)
}

// complete marks the request finished and records its status.
func (q *Request) complete() {
	q.done = true
	q.status = Status{Source: q.peer, Tag: q.tag, Size: q.size}
}

// matchesEnvelope reports whether a posted receive accepts a message
// with the given source and tag.
func (q *Request) matchesEnvelope(src, tag int) bool {
	return (q.peer == AnySource || q.peer == src) && (q.tag == AnyTag || q.tag == tag)
}
