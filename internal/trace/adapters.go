package trace

import (
	"fmt"

	"ovlp/internal/vtime"
)

// KernelObserver returns a vtime.Observer that renders the kernel's
// scheduling activity onto each proc's host track. Because execution
// between blocking points consumes no virtual time, "running" spans
// would all be zero-width; what carries duration — and what the
// observer draws — are the blocked intervals: "compute" spans while a
// proc sits in Compute and "park" spans (tagged with the blocking call
// site) while it waits to be unparked. Deadlock diagnoses become one
// instant per stuck proc plus a kernel.deadlocks counter.
//
// Observer emissions are never charged to the simulated hosts: the
// kernel's own bookkeeping is outside the instrumented libraries,
// whose tracing cost is modelled at their emission sites instead.
// Returns nil for a nil tracer (and vtime ignores a nil observer).
func (t *Tracer) KernelObserver() vtime.Observer {
	if t == nil {
		return nil
	}
	return &kernelObserver{t: t}
}

// procState is what the observer keeps per proc: its host track, and
// the block in progress when blocked is set.
type procState struct {
	tk      *Track
	blocked bool
	since   vtime.Time
	state   string
	where   string
}

type kernelObserver struct {
	t     *Tracer
	procs []procState // indexed by proc id, which the kernel hands out densely from 0
}

// proc returns p's state, creating its track on first sight — the
// track must exist even if every span on it ends up zero-width — so a
// known proc costs an index, not a map lookup per kernel event.
func (o *kernelObserver) proc(p *vtime.Proc) *procState {
	id := p.ID()
	for len(o.procs) <= id {
		o.procs = append(o.procs, procState{})
	}
	ps := &o.procs[id]
	if ps.tk == nil {
		ps.tk = o.t.Track(GroupHost, id, p.Name())
	}
	return ps
}

func (o *kernelObserver) ProcBlocked(p *vtime.Proc, state, where string) {
	ps := o.proc(p)
	ps.blocked, ps.since, ps.state, ps.where = true, p.Now(), state, where
}

func (o *kernelObserver) ProcResumed(p *vtime.Proc) {
	ps := o.proc(p)
	if !ps.blocked {
		// First dispatch after Spawn: mark the birth so an otherwise
		// empty track still shows when the proc existed.
		ps.tk.Instant("kernel", "spawn", p.Now(), None)
		return
	}
	ps.blocked = false
	if p.Now() == ps.since {
		return // zero-width block (e.g. Yield): noise, not signal
	}
	name := "compute"
	a := None
	if ps.state == "parked" {
		name = "park"
		a.Detail = ps.where
	}
	ps.tk.Span("kernel", name, ps.since, p.Now(), a)
}

// ProcUnparked (the vtime.EdgeObserver extension) marks each effective
// wake-up as an "unpark" instant on the woken proc's track, with Peer
// set to the waker's proc id when a proc (rather than a timer or a
// fabric delivery) released it — the cross-timeline edges the
// critical-path walker follows.
func (o *kernelObserver) ProcUnparked(p *vtime.Proc, by *vtime.Proc) {
	a := None
	if by != nil {
		a.Peer = by.ID()
	}
	o.proc(p).tk.Instant("kernel", "unpark", p.Now(), a)
}

func (o *kernelObserver) ProcDone(p *vtime.Proc) {
	o.proc(p).tk.Instant("kernel", "done", p.Now(), None)
}

func (o *kernelObserver) Deadlock(e *vtime.DeadlockError) {
	o.t.Metrics().Counter("kernel.deadlocks").Inc()
	for _, d := range e.Procs {
		tk := o.t.Track(GroupHost, d.ID, d.Name)
		tk.Instant("kernel", "deadlock", e.Now, Args{
			Peer:   NoPeer,
			Detail: fmt.Sprintf("%s: %s in %s since %v", e.Reason, d.State, d.Where, d.Since),
		})
	}
}
