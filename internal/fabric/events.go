package fabric

import "ovlp/internal/vtime"

// freeList recycles what a run schedules over and over. A run is one
// goroutine at a time and the list dies with it: a plain slice does.
type freeList[T any] []*T

func (l *freeList[T]) get() *T {
	n := len(*l)
	if n == 0 {
		return new(T)
	}
	e := (*l)[n-1]
	*l = (*l)[:n-1]
	return e
}

// put zeroes e, so the list keeps no payload alive, and stores it.
// (Wire events clear only their pointers: see wireEvent.Fire.)
func (l *freeList[T]) put(e *T) {
	*e = *new(T)
	*l = append(*l, e)
}

type wireStep uint8

const (
	stepCQE        wireStep = iota // cqe lands on to's CQ
	stepDeliver                    // pkt arrives at to (deliverAt)
	stepDuplicate                  // a network duplicate of pkt arrives at to
	stepAck                        // the acknowledgment pkt arrives at to
	stepServe                      // an RDMA read's request reaches its server src
	stepServerDead                 // the error completion of a read whose server was dead
	stepReadData                   // a read's data, or its loss, reaches the requester to
)

// wireEvent is one step of a transfer that lies ahead in virtual time,
// due at instant at on NIC to. Drawn from the Fabric's free list, it
// makes a message's wire events allocate nothing once the list is warm.
// A step reads only what its scheduler set — cqe for the completion and
// read steps, pkt and deliver for the packet steps, src for serve — so
// a recycled event's other fields keep stale values nobody reads.
type wireEvent struct {
	step    wireStep
	deliver bool // deliverAt's: the packet enters the inbox
	src     NodeID
	to      *NIC
	at      vtime.Time
	cqe     CQE
	pkt     Packet
}

// ackFrame is the Payload of a hardware acknowledgment. The
// acknowledged Seq and the delivering attempt's Start and End ride in
// the Packet's own fields, so an ack boxes nothing.
type ackFrame struct{}

// schedule queues an event for step, due at instant at on NIC to, drawn
// from the free list, and returns it for the caller to set the fields
// the step reads.
func (f *Fabric) schedule(step wireStep, to *NIC, at vtime.Time) *wireEvent {
	e := f.events.get()
	e.step, e.to, e.at = step, to, at
	f.sim.Schedule(at.Sub(f.sim.Now()), e)
	return e
}

// Fire does the step's work on the event in place, then returns it to
// the free list clearing only its pointers, so no stale payload stays
// alive; an RDMA read's serve step passes the event on to its next step
// instead.
func (e *wireEvent) Fire() {
	f := e.to.fab
	switch e.step {
	case stepCQE:
		e.to.pushCQE(e.cqe)
	case stepDeliver, stepDuplicate:
		f.deliverAt(e.to, &e.pkt, e.deliver, e.step == stepDeliver)
	case stepAck:
		if !f.crashed(e.to.id, e.at) { // else the original sender died before the ack landed
			e.to.pushPacket(e.pkt)
		}
	case stepServe:
		if f.serveRead(e) {
			return
		}
	case stepServerDead:
		e.cqe.Status, e.cqe.Start, e.cqe.End = StatusRetryExceeded, f.sim.Now(), f.sim.Now()
		e.to.pushCQE(e.cqe)
	case stepReadData:
		if f.crashed(e.to.id, e.at) {
			f.crashStats.DroppedRx++ // the requester died before the data landed
			break
		}
		if c := &e.cqe; c.Status == StatusOK {
			f.record(Transfer{XferID: c.XferID, Src: e.src, Dst: e.to.id, Size: c.Size, Start: c.Start, End: c.End})
		}
		e.to.pushCQE(e.cqe)
	}
	e.to, e.pkt.Payload = nil, nil
	f.events = append(f.events, e)
}
