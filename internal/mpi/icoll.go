package mpi

import (
	"fmt"

	"ovlp/internal/coll"
	"ovlp/internal/trace"
)

// This file implements the nonblocking collectives: each call builds a
// dataflow schedule (package coll) and registers it with the rank; the
// progress engine — whichever mode is configured — then starts ready
// actions and retires finished ones until the schedule drains. The
// initial ready wave is posted inside the call itself, so even manual
// mode gets round zero onto the wire before returning.

// maxSchedRound bounds a schedule's tag-round field; schedTag packs
// (sequence, round, chunk) into the message tag within the dedicated
// ctxSchedule context.
const maxSchedRound = 1 << 10

func schedTag(seq, round, chunk int) int {
	return seq<<16 | round<<6 | chunk
}

// CollRequest is a nonblocking collective handle, as returned by
// Ibcast, Ireduce, Iallreduce, Ialltoall and Ibarrier and consumed by
// WaitColl and TestColl.
type CollRequest struct {
	r     *Rank
	op    string
	label string // "Iallreduce[ring]": the schedule's site label
	seq   int
	acts  []schedAction
	lo    int // every action before lo has finished: advance scans from here
	nDone int
	done  bool
}

// schedAction is one schedule action plus its execution state.
type schedAction struct {
	coll.Action
	started bool
	fin     bool
	req     *Request // in-flight transfer (Send/Recv actions), released at fin
}

// Done reports completion without progressing; use TestColl to poll.
func (cr *CollRequest) Done() bool { return cr.done }

func (cr *CollRequest) String() string {
	return fmt.Sprintf("%s(seq=%d %d/%d done=%v)", cr.label, cr.seq, cr.nDone, len(cr.acts), cr.done)
}

// Ibcast starts a nonblocking broadcast of size bytes from root.
func (r *Rank) Ibcast(root, size int) *CollRequest {
	return r.startColl("Ibcast", coll.OpBcast, root, size)
}

// Ireduce starts a nonblocking reduction of size bytes to root.
func (r *Rank) Ireduce(root, size int) *CollRequest {
	return r.startColl("Ireduce", coll.OpReduce, root, size)
}

// Iallreduce starts a nonblocking all-reduce of size bytes.
func (r *Rank) Iallreduce(size int) *CollRequest {
	return r.startColl("Iallreduce", coll.OpAllreduce, 0, size)
}

// Ialltoall starts a nonblocking all-to-all of size bytes per pair.
func (r *Rank) Ialltoall(size int) *CollRequest {
	return r.startColl("Ialltoall", coll.OpAlltoall, 0, size)
}

// Ibarrier starts a nonblocking barrier.
func (r *Rank) Ibarrier() *CollRequest {
	return r.startColl("Ibarrier", coll.OpBarrier, 0, 0)
}

// WaitColl blocks until the collective completes, driving progress.
func (r *Rank) WaitColl(cr *CollRequest) {
	r.enterOp("WaitColl")
	defer r.exit()
	r.waitUntil(func() bool { return cr.done })
}

// TestColl polls progress once and reports whether the collective has
// completed — the manual-mode application's progress lever.
func (r *Rank) TestColl(cr *CollRequest) bool {
	r.enterOp("TestColl")
	defer r.exit()
	r.progress()
	return cr.done
}

// startColl builds the schedule and posts its initial ready wave.
func (r *Rank) startColl(opName string, op coll.Op, root, size int) *CollRequest {
	r.enterOp(opName)
	defer r.exit()
	cfg := &r.w.cfg
	sch := r.schedule(opName, coll.Params{
		Op: op, Algo: cfg.CollAlgo, Rank: r.id, Procs: r.Size(),
		Root: root, Size: size, Chunk: cfg.CollChunk,
	})
	cr := &CollRequest{
		r: r, op: opName, seq: r.nextColSeq(),
		label: opName + "[" + sch.Algo.String() + "]",
	}
	cr.acts = make([]schedAction, len(sch.Actions))
	for i, a := range sch.Actions {
		cr.acts[i].Action = a
	}
	if len(cr.acts) == 0 {
		cr.done = true
		return cr
	}
	r.colPending = append(r.colPending, cr)
	r.eng.OpStarted()
	// Post the initial wave through the guarded sweep rather than
	// advancing directly: if the progress thread is mid-sweep (it can
	// yield inside a protocol Compute), mutating its schedule list
	// under it would corrupt the sweep. The guard defers our posting
	// to the thread's next quantum in that case — deterministically.
	r.progress()
	return cr
}

// schedule returns the rank's schedule for p, built on first use: a
// schedule is a pure function of its parameters and an iterative code
// starts the same collective every step. Callers only read it —
// startColl copies the actions into its own execution state.
func (r *Rank) schedule(opName string, p coll.Params) *coll.Schedule {
	if sch := r.schedules[p]; sch != nil {
		return sch
	}
	sch, err := coll.Build(p)
	if err != nil {
		panic("mpi: " + err.Error())
	}
	if sch.Rounds > maxSchedRound {
		panic(fmt.Sprintf("mpi: %s schedule needs %d rounds (max %d)", opName, sch.Rounds, maxSchedRound))
	}
	if r.schedules == nil {
		r.schedules = make(map[coll.Params]*coll.Schedule)
	}
	r.schedules[p] = sch
	return sch
}

// advanceColl runs every pending schedule's ready actions and retires
// completed schedules. It is part of the progress sweep: call it only
// from progress(), under the progressing guard.
func (r *Rank) advanceColl() bool {
	if len(r.colPending) == 0 {
		return false
	}
	did := false
	for _, cr := range r.colPending {
		if advanceSchedule(cr) {
			did = true
		}
	}
	kept := r.colPending[:0]
	for _, cr := range r.colPending {
		if !cr.done {
			kept = append(kept, cr)
		}
	}
	for i := len(kept); i < len(r.colPending); i++ {
		r.colPending[i] = nil
	}
	r.colPending = kept
	return did
}

// advanceSchedule is a variable only for the differential test, which
// runs whole programs on the full-scan reference kept in export_test.go.
var advanceSchedule = (*CollRequest).advance

// advance starts every ready action and retires finished transfers,
// iterating to a fixpoint so freshly satisfied dependencies start in
// the same sweep. Local actions charge their CPU cost to the current
// driver — the rank inside a call, the progress thread during its
// sweeps — which is exactly how asynchronous progress steals cycles on
// real systems. Each pass scans from the first unfinished action: the
// finished prefix only grows, and a pass has nothing to do there.
func (cr *CollRequest) advance() bool {
	if cr.done {
		return false
	}
	r := cr.r
	did := false
	for changed := true; changed; {
		changed = false
		for cr.lo < len(cr.acts) && cr.acts[cr.lo].fin {
			cr.lo++
		}
		for i := cr.lo; i < len(cr.acts); i++ {
			a := &cr.acts[i]
			if a.fin {
				continue
			}
			if a.started {
				if a.req != nil && a.req.done {
					a.fin = true
					r.release(a.req)
					a.req = nil
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
			// Mark started before any Compute below: a Compute yields,
			// and a reentrant look at this action must not start it
			// twice.
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

// noteSchedXfer tags a transfer as belonging to a collective schedule:
// an instant on the rank's host track carrying the transfer id and the
// schedule label, which the profiler joins against the overlap events
// to attribute the transfer's bounds to the owning collective instead
// of to whichever call happened to observe it.
func (r *Rank) noteSchedXfer(label string, xid uint64) {
	if label == "" || r.calls.Trk == nil {
		return
	}
	r.calls.Trk.Instant("coll", "sched", r.driver.Now(),
		trace.Args{Peer: trace.NoPeer, ID: xid, Detail: label})
}
