package mpi

import (
	"testing"

	"ovlp/internal/coll"
	"ovlp/internal/fabric"
)

// Schedules exposes the rank's schedule memo to the external tests.
func (r *Rank) Schedules() map[coll.Params]*coll.Schedule { return r.schedules }

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
	did := false
	for changed := true; changed; {
		changed = false
		for i := range cr.acts {
			a := &cr.acts[i]
			if a.fin {
				continue
			}
			if a.started {
				if a.req != nil && a.req.done {
					a.fin = true
					cr.nDone++
					changed, did = true, true
				}
				continue
			}
			ready := true
			for _, d := range a.Deps {
				if !cr.acts[d].fin {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			a.started = true
			changed, did = true, true
			tag := schedTag(cr.seq, a.Round, a.Chunk)
			switch a.Kind {
			case coll.Send:
				req := r.newReq(reqSend, a.Peer, tag, a.Size)
				req.schedLabel = cr.label
				r.startSend(req, ctxSchedule, false)
				a.req = req
			case coll.Recv:
				a.req = r.postRecvLabeled(a.Peer, tag, ctxSchedule, cr.label)
			case coll.Reduce:
				r.driver.Compute(r.reduceCost(a.Size))
				a.fin = true
				cr.nDone++
			case coll.Copy:
				r.driver.Compute(r.cost().Copy(a.Size))
				a.fin = true
				cr.nDone++
			}
		}
	}
	if !cr.done && cr.nDone == len(cr.acts) {
		cr.done = true
		r.eng.OpDone()
	}
	return did
}
