// Package armci implements a one-sided communication library in the
// style of ARMCI 1.1, the third system the paper instruments.
//
// ARMCI's remote memory access operations (Put/Get and their
// non-blocking forms) are inherently non-blocking and complete
// asynchronously: once posted, the NIC moves the data with no
// involvement from either host's application thread. This is the
// architectural contrast to the polling MPI implementations — and the
// reason the paper's ARMCI experiments (NAS MG, Sec. 4.4) report up to
// 99% maximum overlap for the non-blocking variant.
//
// The same overlap instrumentation is embedded: blocking calls stamp
// XFER_BEGIN and XFER_END inside one library call (case 1: zero
// overlap), while a non-blocking operation stamps XFER_BEGIN in the
// initiating call and XFER_END where completion is detected, letting
// interleaved computation count toward the bounds.
package armci

import (
	"errors"
	"fmt"
	"time"

	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// Sentinel errors for communication failures under an active fault
// plan, wrapped in a *CommError (match with errors.Is).
var (
	ErrTimeout         = errors.New("armci: communication timed out")
	ErrPeerUnreachable = errors.New("armci: peer unreachable")
)

// CommError is the structured failure of a one-sided operation,
// raised as a panic from the failing call and recovered into an
// ordinary error by cluster.RunARMCI.
type CommError struct {
	Proc     int
	Peer     int
	Op       string
	Attempts int
	err      error
}

func (e *CommError) Error() string {
	return fmt.Sprintf("armci: proc %d: %s to proc %d failed after %d attempt(s): %v",
		e.Proc, e.Op, e.Peer, e.Attempts, e.err)
}

func (e *CommError) Unwrap() error { return e.err }

// Config parameterizes a World.
type Config struct {
	// Instrument enables instrumentation; nil runs uninstrumented.
	Instrument *overlap.Instrument
	// Reliable enables the software reliable-delivery layer (see the
	// mpi package's equivalent). Required under an active fault plan.
	Reliable *fabric.ReliableParams
	// Tracer, if non-nil, receives structured trace records (see the
	// mpi package's equivalent): one span per outermost library call
	// plus the overlap monitor's event stream.
	Tracer *trace.Tracer
}

// World is a set of ARMCI processes over one fabric.
type World struct {
	sim     *vtime.Sim
	fab     *fabric.Fabric
	cfg     Config
	procs   []*Proc
	reports []*overlap.Report
	errs    []error
}

// NewWorld creates a world spanning every fabric node.
func NewWorld(sim *vtime.Sim, fab *fabric.Fabric, cfg Config) *World {
	w := &World{sim: sim, fab: fab, cfg: cfg,
		reports: make([]*overlap.Report, fab.Nodes()),
		errs:    make([]error, fab.Nodes())}
	for i := 0; i < fab.Nodes(); i++ {
		w.procs = append(w.procs, &Proc{
			w:     w,
			id:    i,
			nic:   fab.NIC(fabric.NodeID(i)),
			wrMap: make(map[uint64]*Handle),
		})
	}
	return w
}

// Size returns the number of processes.
func (w *World) Size() int { return len(w.procs) }

// Start spawns one proc per process executing main; run the simulation
// afterwards.
func (w *World) Start(main func(p *Proc)) {
	for _, pr := range w.procs {
		pr := pr
		w.sim.Spawn(fmt.Sprintf("armci%d", pr.id), func(vp *vtime.Proc) {
			pr.attach(vp)
			defer pr.recoverAbort()
			main(pr)
			pr.finalizeReport()
		})
	}
}

// RankErrors returns each process's recovered structured failure, nil
// entries for processes that finished cleanly; valid after the
// simulation has run. See mpi.World.RankErrors for the semantics.
func (w *World) RankErrors() []error { return w.errs }

// Reports returns per-process reports after the run.
func (w *World) Reports() []*overlap.Report { return w.reports }

// Handle identifies an outstanding non-blocking operation.
type Handle struct {
	done   bool
	xferID uint64
	size   int

	// repost parameters, kept so a failed completion can reissue the op
	dst, block, count int
	get               bool
	attempts          int
}

// Done reports completion without making progress.
func (h *Handle) Done() bool { return h.done }

// barrierToken synchronizes Barrier rounds.
type barrierToken struct {
	seq, round int
}

// Proc is one process's handle to the library.
type Proc struct {
	w    *World
	id   int
	proc *vtime.Proc
	nic  *fabric.NIC
	rel  *fabric.Reliable // reliable delivery, nil unless Config.Reliable

	// calls brackets every library call for the instrumentation and
	// the library-time accounting.
	calls overlap.Calls

	wrMap       map[uint64]*Handle
	outstanding int // incomplete non-blocking ops (for Fence)
	tokens      map[barrierToken]int
	barrierSeq  int
}

func (p *Proc) attach(vp *vtime.Proc) {
	p.proc = vp
	p.tokens = make(map[barrierToken]int)
	p.nic.SetNotify(func() { p.proc.Unpark() })
	if rp := p.w.cfg.Reliable; rp != nil {
		p.rel = fabric.NewReliable(p.nic, *rp, func() { p.proc.Unpark() })
	}
	p.calls.Attach(vp, &p.proc, p.id, p.w.cfg.Instrument, p.w.cfg.Tracer, "armci", trace.None)
}

func (p *Proc) finalizeReport() {
	if p.rel != nil {
		// Quiesce unacknowledged sequenced sends (barrier tokens) before
		// exiting, so their retransmission timers are never stranded
		// without a progress engine.
		p.calls.Enter("Finalize", -1, -1)
		p.waitUntil(func() bool { return p.rel.Outstanding() == 0 })
		p.calls.Exit()
	}
	p.w.reports[p.id] = p.calls.Report()
}

// recoverAbort intercepts the process's structured failure panic (a
// spent retry budget): the error is recorded for World.RankErrors, the
// interrupted call's accounting and open regions are unwound without
// quiescing, and the report is still produced. Non-error panics are
// bugs and propagate.
func (p *Proc) recoverAbort() {
	v := recover()
	if v == nil {
		return
	}
	err, ok := v.(error)
	if !ok {
		panic(v)
	}
	p.w.errs[p.id] = err
	p.calls.Unwind()
	p.w.reports[p.id] = p.calls.Report()
}

// ID returns the process id.
func (p *Proc) ID() int { return p.id }

// Size returns the number of processes.
func (p *Proc) Size() int { return p.w.Size() }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.proc.Now().Duration() }

// Compute models d of user computation.
func (p *Proc) Compute(d time.Duration) { p.proc.Compute(d) }

// LibTime returns the aggregate time spent inside library calls.
func (p *Proc) LibTime() time.Duration { return p.calls.LibTime() }

// RelStats returns the proc's reliable-delivery counters (zero value
// when the reliability layer is disabled).
func (p *Proc) RelStats() fabric.RelStats {
	if p.rel == nil {
		return fabric.RelStats{}
	}
	return p.rel.Stats()
}

// PushRegion and PopRegion delimit a monitored section.
func (p *Proc) PushRegion(name string) { p.calls.Mon.PushRegion(name) }

// PopRegion closes the innermost monitored section.
func (p *Proc) PopRegion() { p.calls.Mon.PopRegion() }

// progress drains completions and packets; returns whether anything
// advanced. Unlike the MPI library there is no protocol to pump: data
// movement needs no host participation, so "progress" only means
// noticing completions.
func (p *Proc) progress() bool {
	did := false
	for {
		cqe := p.nic.PollCQ(p.proc)
		if cqe == nil {
			break
		}
		did = true
		if p.rel != nil && p.rel.TakeWR(cqe.WRID) {
			continue // reliable token send; ack-driven
		}
		h, ok := p.wrMap[cqe.WRID]
		if !ok {
			continue
		}
		delete(p.wrMap, cqe.WRID)
		if cqe.Status != fabric.StatusOK {
			p.handleFailedCQE(h, cqe)
			continue
		}
		p.calls.Mon.XferEnd(h.xferID, h.size)
		h.done = true
		p.outstanding--
	}
	for {
		pkt := p.nic.PollInbox(p.proc)
		if pkt == nil {
			break
		}
		did = true
		if p.rel.Accept(pkt) {
			p.tokens[pkt.Payload.(barrierToken)]++
		}
	}
	if p.rel != nil {
		d, err := p.rel.RunDue(p.proc)
		if err != nil {
			p.commFail(err)
		}
		if d {
			did = true
		}
	}
	return did
}

// commFail converts a delivery failure into the library's structured
// error and aborts the proc with it (recovered by cluster.RunARMCI).
func (p *Proc) commFail(err error) {
	var de *fabric.DeliveryError
	if errors.As(err, &de) {
		base := ErrTimeout
		if de.PeerSilent {
			base = ErrPeerUnreachable
		}
		panic(&CommError{Proc: p.id, Peer: int(de.Dst), Op: de.Op, Attempts: de.Attempts, err: base})
	}
	panic(err)
}

// handleFailedCQE reposts a failed one-sided operation with backoff, or
// fails the proc once the retry budget is spent.
func (p *Proc) handleFailedCQE(h *Handle, cqe *fabric.CQE) {
	attempts := h.attempts + 1
	if p.rel == nil {
		p.commFail(&fabric.DeliveryError{Dst: fabric.NodeID(h.dst), Op: cqe.Kind.String(), Attempts: attempts})
	}
	err := p.rel.Repost(fabric.NodeID(h.dst), cqe.Kind.String(), h.xferID, attempts, func(vp *vtime.Proc) {
		h.attempts = attempts
		var wr uint64
		switch {
		case h.get:
			wr = p.nic.RDMARead(vp, fabric.NodeID(h.dst), h.size, h.xferID)
		case h.count > 1:
			wr = p.nic.RDMAWriteStrided(vp, fabric.NodeID(h.dst), h.count, h.block, h.xferID, nil)
		default:
			wr = p.nic.RDMAWrite(vp, fabric.NodeID(h.dst), h.size, h.xferID, nil)
		}
		p.wrMap[wr] = h
	})
	if err != nil {
		p.commFail(err)
	}
}

func (p *Proc) waitUntil(cond func() bool) {
	for !cond() {
		if p.progress() {
			continue
		}
		if cond() || p.nic.Pending() || (p.rel != nil && p.rel.HasDue()) {
			continue
		}
		p.proc.Park("armci.waitUntil")
	}
}

// post issues the one-sided operation and returns its handle. count>1
// makes it a strided (vectored) put of count segments of size bytes.
func (p *Proc) post(dst, size, count int, get bool) *Handle {
	if count < 1 {
		panic("armci: strided operation needs at least one segment")
	}
	xid := p.w.fab.NewXferID()
	switch {
	case get:
		p.w.fab.TagXfer(xid, "get")
	case count > 1:
		p.w.fab.TagXfer(xid, "put-strided")
	default:
		p.w.fab.TagXfer(xid, "put")
	}
	h := &Handle{xferID: xid, size: size * count, dst: dst, block: size, count: count, get: get}
	p.calls.Mon.XferBegin(xid, size*count)
	var wr uint64
	switch {
	case get:
		wr = p.nic.RDMARead(p.proc, fabric.NodeID(dst), size*count, xid)
	case count > 1:
		wr = p.nic.RDMAWriteStrided(p.proc, fabric.NodeID(dst), count, size, xid, nil)
	default:
		wr = p.nic.RDMAWrite(p.proc, fabric.NodeID(dst), size, xid, nil)
	}
	p.wrMap[wr] = h
	p.outstanding++
	return h
}

// NbPut starts a non-blocking contiguous put of size bytes to dst.
func (p *Proc) NbPut(dst, size int) *Handle {
	p.calls.Enter("NbPut", dst, int64(size))
	defer p.calls.Exit()
	return p.post(dst, size, 1, false)
}

// NbPutStrided starts a non-blocking strided put of count segments of
// block bytes each — ARMCI's vectored remote update (ARMCI_NbPutS).
// Each segment pays its own per-packet wire cost.
func (p *Proc) NbPutStrided(dst, count, block int) *Handle {
	p.calls.Enter("NbPutStrided", dst, int64(count)*int64(block))
	defer p.calls.Exit()
	return p.post(dst, block, count, false)
}

// NbGet starts a non-blocking contiguous get of size bytes from dst.
func (p *Proc) NbGet(dst, size int) *Handle {
	p.calls.Enter("NbGet", dst, int64(size))
	defer p.calls.Exit()
	return p.post(dst, size, 1, true)
}

// WaitHandle blocks until the operation completes.
func (p *Proc) WaitHandle(h *Handle) {
	p.calls.Enter("WaitHandle", -1, -1)
	defer p.calls.Exit()
	p.waitUntil(func() bool { return h.done })
}

// Put is the blocking put: initiation and completion inside one
// library call, so the instrumentation correctly reports zero overlap.
func (p *Proc) Put(dst, size int) {
	p.calls.Enter("Put", dst, int64(size))
	defer p.calls.Exit()
	h := p.post(dst, size, 1, false)
	p.waitUntil(func() bool { return h.done })
}

// PutStrided is the blocking strided put (ARMCI_PutS).
func (p *Proc) PutStrided(dst, count, block int) {
	p.calls.Enter("PutStrided", dst, int64(count)*int64(block))
	defer p.calls.Exit()
	h := p.post(dst, block, count, false)
	p.waitUntil(func() bool { return h.done })
}

// Get is the blocking get.
func (p *Proc) Get(dst, size int) {
	p.calls.Enter("Get", dst, int64(size))
	defer p.calls.Exit()
	h := p.post(dst, size, 1, true)
	p.waitUntil(func() bool { return h.done })
}

// FenceAll blocks until every outstanding one-sided operation issued
// by this process has completed.
func (p *Proc) FenceAll() {
	p.calls.Enter("FenceAll", -1, -1)
	defer p.calls.Exit()
	p.waitUntil(func() bool { return p.outstanding == 0 })
}

// Barrier synchronizes all processes (dissemination over message-layer
// tokens; tokens are control traffic and do not appear as data
// transfers in the instrumentation). It implies FenceAll, like
// ARMCI_Barrier.
func (p *Proc) Barrier() {
	p.calls.Enter("Barrier", -1, -1)
	defer p.calls.Exit()
	p.waitUntil(func() bool { return p.outstanding == 0 })
	seq := p.barrierSeq
	p.barrierSeq++
	n := p.Size()
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		dst := (p.id + k) % n
		tok := barrierToken{seq: seq, round: round}
		if p.rel != nil {
			p.rel.Send(p.proc, fabric.NodeID(dst), 0, 0, tok, "barrier", nil)
		} else {
			p.nic.Send(p.proc, fabric.NodeID(dst), 0, 0, tok)
		}
		p.waitUntil(func() bool { return p.tokens[tok] > 0 })
		p.tokens[tok]--
		if p.tokens[tok] == 0 {
			delete(p.tokens, tok)
		}
	}
	// Drain our token sends' completions so they never linger.
	p.progress()
}
