package mpi

import (
	"testing"

	"ovlp/internal/coll"
	"ovlp/internal/fabric"
)

// Schedules exposes the rank's schedule memo to the external tests.
func (r *Rank) Schedules() map[coll.Params]*coll.Schedule {
	out := make(map[coll.Params]*coll.Schedule, len(r.schedules))
	for p, m := range r.schedules {
		out[p] = m.sch
	}
	return out
}

// SpareStates is the length of the rank's list of action-state slices
// that completed schedules handed back.
func (r *Rank) SpareStates() int { return len(r.spareSt) }

// HoldsState reports whether the handle still holds its action states.
func (cr *CollRequest) HoldsState() bool { return cr.st != nil }

// OutstandingWRs is the length of the completion-routing table: work
// requests the rank posted and has not yet polled a completion for.
func (r *Rank) OutstandingWRs() int { return len(r.wrs) }

// StaleWRs counts work requests abandoned at an epoch cut whose
// completions have not arrived yet.
func (r *Rank) StaleWRs() int { return len(r.staleWR) }

// HandleCQE routes one completion as the progress sweep would.
func (r *Rank) HandleCQE(cqe *fabric.CQE) { r.handleCQE(cqe) }

// PostTrackedRead posts an RDMA read of size bytes from src on behalf of
// a fresh receive request, as the direct rendezvous does once a receive
// is matched, and returns the request and the read's work-request id.
func (r *Rank) PostTrackedRead(src, size int) (*Request, uint64) {
	req := r.newReq(reqRecv, src, 0, size)
	xid := r.w.fab.NewXferID()
	wr := r.nic.RDMARead(r.driver, fabric.NodeID(src), size, xid)
	r.trackWR(wr, pendingWR{kind: wrRead, req: req, xferID: xid, size: size})
	return req, wr
}

// ReleasedRequest sends a buffered eager message to dst the way Send
// does, hands the request back to the rank and returns it: a request
// nothing may touch again.
func (r *Rank) ReleasedRequest(dst int) *Request {
	r.enterOp("Send")
	defer r.exit()
	req := r.newReq(reqSend, dst, 0, 1)
	r.startSend(req, ctxUser, true)
	r.await(req)
	return req
}

// CompleteRequest drives q's completion as a protocol handler would.
func CompleteRequest(q *Request) { q.complete() }

// SpareRequests is the length of the rank's list of released requests.
func (r *Rank) SpareRequests() int { return len(r.spare) }

// UseReferenceAdvance runs every schedule sweep of the test on
// referenceAdvance. Not for parallel tests: the switch is package-wide.
func UseReferenceAdvance(t *testing.T) {
	advanceSchedule = (*CollRequest).referenceAdvance
	t.Cleanup(func() { advanceSchedule = (*CollRequest).advance })
}

// referenceAdvance is advance as it was before the finished-prefix
// cursor: every pass of every sweep walks the whole schedule. It is the
// oracle for the cursor — do not optimise it.
func (cr *CollRequest) referenceAdvance() bool {
	if cr.done {
		return false
	}
	r := cr.r
	acts, st := cr.sch.Actions, cr.st
	did := false
	for changed := true; changed; {
		changed = false
		for i := range st {
			s, a := &st[i], &acts[i]
			if s.fin {
				continue
			}
			if s.started {
				if s.req != nil && s.req.done {
					s.fin = true
					cr.nDone++
					changed, did = true, true
				}
				continue
			}
			ready := true
			for _, d := range a.Deps {
				if !st[d].fin {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			s.started = true
			changed, did = true, true
			tag := schedTag(cr.seq, a.Round, a.Chunk)
			switch a.Kind {
			case coll.Send:
				req := r.newReq(reqSend, a.Peer, tag, a.Size)
				req.schedLabel = cr.label
				r.startSend(req, ctxSchedule, false)
				s.req = req
			case coll.Recv:
				s.req = r.postRecvLabeled(a.Peer, tag, ctxSchedule, cr.label)
			case coll.Reduce:
				r.driver.Compute(r.reduceCost(a.Size))
				s.fin = true
				cr.nDone++
			case coll.Copy:
				r.driver.Compute(r.cost().Copy(a.Size))
				s.fin = true
				cr.nDone++
			}
		}
	}
	if !cr.done && cr.nDone == len(st) {
		cr.finish()
	}
	return did
}
