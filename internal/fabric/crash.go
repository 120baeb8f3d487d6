package fabric

import (
	"fmt"
	"time"

	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// This file implements crash-stop node failures. A CrashPlan names
// nodes that die at a virtual time (absolute, or anchored to a labelled
// chaos event from the FaultPlan schedule so outages and crashes
// correlate). From its crash instant a node's NIC is dead: posted work
// requests are swallowed (no CQE, nothing leaves the node), packets
// addressed to it vanish at the NIC, and — crucially — it stops
// generating hardware acknowledgments, so the software reliability
// layer's retry exhaustion becomes the failure-detection primitive.
// Packets already in flight when the node dies still deliver (the
// network does not recall them), which is exactly the ambiguity a
// real detector faces.

// Crash describes the crash-stop death of one node.
type Crash struct {
	// Node is the node that dies.
	Node NodeID
	// At is the absolute crash time. Ignored when OnEvent is set.
	At vtime.Time
	// OnEvent, when non-empty, anchors the crash to the activation time
	// of the FaultPlan schedule event with that Label, so a crash can be
	// correlated with an existing chaos event (a rack outage that also
	// takes a node down). The fault plan must be installed first.
	OnEvent string
	// Delay is added to the anchor time (At or the event activation).
	Delay time.Duration
}

// CrashPlan is a complete description of crash-stop failures for one
// run. The zero value (and nil) kills nothing.
type CrashPlan struct {
	Crashes []Crash
}

// Active reports whether the plan kills any node.
func (p *CrashPlan) Active() bool { return p != nil && len(p.Crashes) > 0 }

// Validate checks the plan's internal consistency (node bounds are
// checked against the fabric in SetCrashes).
func (p *CrashPlan) Validate() error {
	if p == nil {
		return nil
	}
	seen := make(map[NodeID]bool)
	for i, c := range p.Crashes {
		if c.OnEvent == "" && c.At < 0 {
			return fmt.Errorf("fabric: crash %d: negative time %v", i, c.At)
		}
		if c.Delay < 0 {
			return fmt.Errorf("fabric: crash %d: negative delay %v", i, c.Delay)
		}
		if seen[c.Node] {
			return fmt.Errorf("fabric: crash %d: node %d crashes twice", i, c.Node)
		}
		seen[c.Node] = true
	}
	return nil
}

// CrashStats counts the effects of crash-stop failures during a run.
type CrashStats struct {
	// Crashed is the number of nodes that died.
	Crashed int
	// SwallowedTx counts work requests posted by a dead NIC (no CQE,
	// nothing transmitted).
	SwallowedTx int
	// DroppedRx counts packets that arrived at a dead NIC and vanished
	// unacknowledged.
	DroppedRx int
}

// NodeCrashedError reports that a node suffered a crash-stop failure.
// It is the panic value delivered to the node's procs (via
// vtime.Proc.Kill) so a library's abort handler can distinguish a
// modelled crash from a software failure.
type NodeCrashedError struct {
	Node NodeID
	At   vtime.Time
}

func (e *NodeCrashedError) Error() string {
	return fmt.Sprintf("fabric: node %d crashed at t=%v", e.Node, e.At)
}

// SetCrashes installs a crash plan; call before the simulation starts,
// and after SetFaults when crashes anchor to labelled chaos events. At
// each crash instant the fabric marks the NIC dead, emits a "crash"
// trace instant on its track, and invokes the OnCrash callback (in
// event context) so the hosting layer can kill the node's procs.
func (f *Fabric) SetCrashes(plan *CrashPlan) error {
	if !plan.Active() {
		return nil
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	if f.crashAt == nil {
		f.crashAt = make(map[NodeID]vtime.Time)
	}
	for i, c := range plan.Crashes {
		if int(c.Node) < 0 || int(c.Node) >= len(f.nics) {
			return fmt.Errorf("fabric: crash %d names node %d outside [0, %d)", i, c.Node, len(f.nics))
		}
		at := c.At
		if c.OnEvent != "" {
			at = -1
			if f.faults != nil {
				for j := range f.faults.plan.Schedule {
					if f.faults.plan.Schedule[j].Label == c.OnEvent {
						at = f.faults.plan.Schedule[j].At
						break
					}
				}
			}
			if at < 0 {
				return fmt.Errorf("fabric: crash %d: no schedule event labelled %q (install the fault plan first)", i, c.OnEvent)
			}
		}
		at = at.Add(c.Delay)
		f.crashAt[c.Node] = at
		f.sim.Schedule(at.Sub(f.sim.Now()), &crashEvent{f.nics[c.Node]})
	}
	return nil
}

// crashEvent is n's crash instant.
type crashEvent struct{ n *NIC }

func (e *crashEvent) Fire() {
	n, f := e.n, e.n.fab
	f.crashStats.Crashed++
	f.nicTrack(n.id).Instant("crash", "node-dead", f.sim.Now(), trace.Args{ID: uint64(n.id)})
	if f.tr != nil {
		f.tr.Metrics().Counter("fabric.crashes").Inc()
	}
	if f.onCrash != nil {
		f.onCrash(n.id)
	}
}

// OnCrash registers fn to be invoked, in simulation event context, at
// the instant each crashed node dies. The hosting layer uses it to kill
// the node's procs. fn must not block.
func (f *Fabric) OnCrash(fn func(NodeID)) { f.onCrash = fn }

// CrashStats returns the crash-effect counters.
func (f *Fabric) CrashStats() CrashStats { return f.crashStats }

// crashed reports whether node n is dead at time t.
func (f *Fabric) crashed(n NodeID, t vtime.Time) bool {
	if f.crashAt == nil {
		return false
	}
	at, ok := f.crashAt[n]
	return ok && t >= at
}
