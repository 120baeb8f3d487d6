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

// schedule queues a copy of r, drawn from the free list.
func (f *Fabric) schedule(r wireEvent) {
	e := f.events.get()
	*e = r
	f.sim.Schedule(r.at.Sub(f.sim.Now()), e)
}

// Fire copies the event out and returns it to the free list before
// doing the work, which may schedule more events.
func (e *wireEvent) Fire() {
	r := *e
	f := r.to.fab
	f.events.put(e)
	switch r.step {
	case stepCQE:
		r.to.pushCQE(r.cqe)
	case stepDeliver, stepDuplicate:
		f.deliverAt(r.to, r.pkt, r.deliver, r.step == stepDeliver)
	case stepAck:
		if !f.crashed(r.to.id, r.at) { // else the original sender died before the ack landed
			r.to.pushPacket(r.pkt)
		}
	case stepServe:
		f.serveRead(r)
	case stepServerDead:
		r.cqe.Status, r.cqe.Start, r.cqe.End = StatusRetryExceeded, f.sim.Now(), f.sim.Now()
		r.to.pushCQE(r.cqe)
	case stepReadData:
		if f.crashed(r.to.id, r.at) {
			f.crashStats.DroppedRx++
			return // the requester died before the data landed
		}
		if c := r.cqe; c.Status == StatusOK {
			f.record(Transfer{XferID: c.XferID, Src: r.src, Dst: r.to.id, Size: c.Size, Start: c.Start, End: c.End})
		}
		r.to.pushCQE(r.cqe)
	}
}
