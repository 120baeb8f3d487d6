package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ovlp/internal/vtime"
)

// This file implements deterministic fault injection. A FaultPlan
// describes, per directed link and per NIC, how the fabric misbehaves:
// packet loss, duplication, delivery jitter, degraded bandwidth, and
// DMA-engine stall windows. All randomness comes from one PRNG seeded
// by the plan, consumed in simulation event order, so a given (plan,
// program) pair reproduces the same run bit-for-bit.
//
// Faults manifest according to the op class:
//
//   - Send-class packets behave like unreliable datagrams: a dropped
//     packet vanishes silently (the sender's CQE still reports OK — the
//     data did leave the NIC), and a duplicated packet arrives twice.
//     Recovering is the job of the software reliability layer
//     (Reliable), exactly as on a lossy fabric.
//   - RDMA data operations model a reliable-connected transport: the
//     HCA's own link-level retries are outside the simulation, so a
//     "dropped" RDMA op surfaces as a completion with
//     StatusRetryExceeded and no data movement; the library reposts
//     with backoff.
//   - Stalls freeze a NIC's DMA egress engine for a window of virtual
//     time: transfers posted during the window start late. A window
//     ending at Forever blackholes the NIC — posted work requests
//     never complete and nothing leaves the node.

// Link identifies a directed src→dst link in the full crossbar.
type Link struct {
	Src, Dst NodeID
}

// Forever marks a stall window that never ends: the NIC is wedged from
// the window's start for the rest of the run.
const Forever = vtime.Time(math.MaxInt64)

// LinkFaults configures misbehaviour of one directed link.
type LinkFaults struct {
	// DropRate is the probability in [0,1] that a packet is lost.
	DropRate float64
	// DupRate is the probability in [0,1] that a delivered packet
	// arrives a second time (Send-class packets only).
	DupRate float64
	// DropEvery, when positive, overrides DropRate with a deterministic
	// pattern: every DropEvery-th packet on the link is dropped
	// (counting from 1, so DropEvery=2 drops packets 2, 4, 6, ...).
	// Useful for tests that need an exact loss schedule.
	DropEvery int
	// JitterMax adds a uniform extra delivery delay in [0, JitterMax)
	// to each packet.
	JitterMax time.Duration
	// BandwidthFactor scales the link's effective bandwidth: 0.5 halves
	// it (doubling serialization time). Zero or 1 leaves it nominal.
	BandwidthFactor float64
}

func (l LinkFaults) active() bool {
	return l.DropRate > 0 || l.DupRate > 0 || l.DropEvery > 0 ||
		l.JitterMax > 0 || (l.BandwidthFactor != 0 && l.BandwidthFactor != 1)
}

func (l LinkFaults) validate(what string) error {
	if l.DropRate < 0 || l.DropRate > 1 {
		return fmt.Errorf("fabric: %s: DropRate %v outside [0, 1]", what, l.DropRate)
	}
	if l.DupRate < 0 || l.DupRate > 1 {
		return fmt.Errorf("fabric: %s: DupRate %v outside [0, 1]", what, l.DupRate)
	}
	if l.DropEvery < 0 {
		return fmt.Errorf("fabric: %s: DropEvery %d is negative", what, l.DropEvery)
	}
	if l.JitterMax < 0 {
		return fmt.Errorf("fabric: %s: JitterMax %v is negative", what, l.JitterMax)
	}
	if l.BandwidthFactor < 0 || l.BandwidthFactor > 1 {
		return fmt.Errorf("fabric: %s: BandwidthFactor %v outside [0, 1] (0 means nominal)", what, l.BandwidthFactor)
	}
	return nil
}

// StallWindow freezes one NIC's DMA egress engine during [Start, End):
// work posted inside the window begins transmitting only at End. An End
// of Forever blackholes the NIC from Start on.
type StallWindow struct {
	Node       NodeID
	Start, End vtime.Time
}

// FaultEvent is one timed entry of a chaos schedule: a fault
// configuration that activates at virtual time At and (optionally)
// clears at Clear. While active, the event overlays the plan's static
// configuration — later schedule entries overlay earlier ones — so
// cascading failures, correlated rack outages and recovery windows are
// all expressible as sequences of events.
//
// Scope: an event must name at least one of Default, Links or Nodes.
// An overlay *replaces* the link's whole LinkFaults while active, so an
// event carrying a zero configuration models a repair window (the
// scoped links go back to a perfect network until Clear).
type FaultEvent struct {
	// Label names the event in descriptions and scenario reports
	// ("rack0-outage", "cascade-2"). Optional.
	Label string
	// At is the activation time. Events with At == 0 are active from
	// the first instant of the run.
	At vtime.Time
	// Clear, when positive, deactivates the event at that time; zero
	// means the event stays active for the rest of the run. Clear must
	// be strictly after At (Validate rejects clear-before-activate).
	Clear vtime.Time
	// Ramp, when positive, fades the event's bandwidth degradation in
	// linearly over [At, At+Ramp): the effective BandwidthFactor moves
	// from nominal (1) at At to the configured value at At+Ramp. The
	// other knobs (drop, dup, jitter) switch on at At regardless.
	Ramp time.Duration
	// Default, when non-nil, replaces the plan's Default link faults
	// while the event is active.
	Default *LinkFaults
	// Links replaces the configuration of specific directed links
	// while the event is active.
	Links map[Link]LinkFaults
	// Nodes lists a correlated outage group — the nodes behind one
	// rack or switch. While the event is active, NodeFaults applies to
	// every link whose source or destination is in the group, so the
	// whole group fails and recovers together.
	Nodes []NodeID
	// NodeFaults is the configuration applied to the group's links.
	NodeFaults LinkFaults
}

// activeAt reports whether the event is live at time t.
func (e *FaultEvent) activeAt(t vtime.Time) bool {
	if t < e.At {
		return false
	}
	return e.Clear == 0 || t < e.Clear
}

// name renders the event for error messages.
func (e *FaultEvent) name(i int) string {
	if e.Label != "" {
		return fmt.Sprintf("schedule event %d (%s)", i, e.Label)
	}
	return fmt.Sprintf("schedule event %d", i)
}

func (e *FaultEvent) validate(i int) error {
	what := e.name(i)
	if e.At < 0 {
		return fmt.Errorf("fabric: %s: negative activation time %v", what, e.At)
	}
	if e.Clear != 0 && e.Clear <= e.At {
		return fmt.Errorf("fabric: %s: clears at %v, not after activation %v (clear-before-activate)",
			what, e.Clear, e.At)
	}
	if e.Ramp < 0 {
		return fmt.Errorf("fabric: %s: negative ramp %v", what, e.Ramp)
	}
	if e.Default == nil && len(e.Links) == 0 && len(e.Nodes) == 0 {
		return fmt.Errorf("fabric: %s: configures nothing (need Default, Links or Nodes)", what)
	}
	if e.Default != nil {
		if err := e.Default.validate(what + " Default"); err != nil {
			return err
		}
	}
	for l, lf := range e.Links {
		if err := lf.validate(fmt.Sprintf("%s link %d->%d", what, l.Src, l.Dst)); err != nil {
			return err
		}
		if l.Src == l.Dst {
			return fmt.Errorf("fabric: %s: link %d->%d is a self-loop", what, l.Src, l.Dst)
		}
	}
	if len(e.Nodes) > 0 {
		for _, n := range e.Nodes {
			if n < 0 {
				return fmt.Errorf("fabric: %s: negative node %d in group", what, n)
			}
		}
		if err := e.NodeFaults.validate(what + " NodeFaults"); err != nil {
			return err
		}
	}
	return nil
}

// FaultPlan is a complete, seeded description of fabric misbehaviour
// for one run. The zero value (and nil) is a perfect network.
type FaultPlan struct {
	// Seed seeds the fault PRNG; runs with equal seeds and plans are
	// bit-for-bit identical.
	Seed int64
	// Default applies to every link.
	Default LinkFaults
	// Stalls lists DMA-engine stall windows.
	Stalls []StallWindow
	// Schedule is the timed chaos schedule: fault events that activate
	// and clear at virtual times, overlaying the static configuration
	// above while active.
	Schedule []FaultEvent
}

// Active reports whether the plan can perturb anything; an inactive
// plan leaves the fabric on the exact pre-fault code path (no PRNG
// draws, no acknowledgments, byte-identical results).
func (p *FaultPlan) Active() bool {
	if p == nil {
		return false
	}
	return p.Default.active() || len(p.Stalls) > 0 || len(p.Schedule) > 0
}

// Validate checks rates, factors and windows, returning a descriptive
// error for the first invalid parameter.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	if err := p.Default.validate("Default"); err != nil {
		return err
	}
	for i, w := range p.Stalls {
		if w.Start < 0 {
			return fmt.Errorf("fabric: stall window %d: negative start %v", i, w.Start)
		}
		if w.End <= w.Start {
			return fmt.Errorf("fabric: stall window %d: end %v not after start %v (use Forever for a permanent stall)", i, w.End, w.Start)
		}
	}
	for i := range p.Schedule {
		if err := p.Schedule[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

// CheckNodes verifies that every node the plan names exists on a
// machine of n nodes: the fabric's check when a plan is installed, and
// a driver's before a sweep starts its first run.
func (p *FaultPlan) CheckNodes(n int) error {
	if p == nil {
		return nil
	}
	outside := func(id NodeID) bool { return int(id) < 0 || int(id) >= n }
	for i, w := range p.Stalls {
		if outside(w.Node) {
			return fmt.Errorf("fabric: stall window %d names node %d outside [0, %d)", i, w.Node, n)
		}
	}
	for i := range p.Schedule {
		ev := &p.Schedule[i]
		for l := range ev.Links {
			if outside(l.Src) || outside(l.Dst) {
				return fmt.Errorf("fabric: %s link %d->%d names a node outside [0, %d)", ev.name(i), l.Src, l.Dst, n)
			}
		}
		for _, id := range ev.Nodes {
			if outside(id) {
				return fmt.Errorf("fabric: %s names node %d outside [0, %d)", ev.name(i), id, n)
			}
		}
	}
	return nil
}

// FaultStats counts the faults actually injected during a run.
type FaultStats struct {
	Dropped    int // packets and RDMA ops lost
	Duplicated int // extra deliveries injected
	Jittered   int // packets delayed by jitter
	Stalled    int // transfers delayed by a finite stall window
	Blackholed int // work requests swallowed by a permanent stall
}

// faultState is the runtime form of a FaultPlan: the PRNG, per-link
// packet counters and injection statistics.
type faultState struct {
	plan      FaultPlan
	rng       *rand.Rand
	linkCount map[Link]int
	stats     FaultStats
}

func newFaultState(plan FaultPlan) *faultState {
	return &faultState{
		plan:      plan,
		rng:       rand.New(rand.NewSource(plan.Seed)),
		linkCount: make(map[Link]int),
	}
}

// effective resolves the src→dst link's fault configuration at time
// now: the plan's Default, then every schedule event active at now
// overlays it in declaration order (later events win). The returned
// event index is the winning overlay (-1 when Default applies), so ramp
// scaling can find its activation time.
func (fs *faultState) effective(src, dst NodeID, now vtime.Time) (LinkFaults, int) {
	lf, win := fs.plan.Default, -1
	for i := range fs.plan.Schedule {
		ev := &fs.plan.Schedule[i]
		if !ev.activeAt(now) {
			continue
		}
		if o, ok := ev.Links[Link{src, dst}]; ok {
			lf, win = o, i
			continue
		}
		if ev.touches(src, dst) {
			lf, win = ev.NodeFaults, i
			continue
		}
		if ev.Default != nil {
			lf, win = *ev.Default, i
		}
	}
	return lf, win
}

// touches reports whether the event's correlated node group contains
// either endpoint of the link.
func (e *FaultEvent) touches(src, dst NodeID) bool {
	for _, n := range e.Nodes {
		if n == src || n == dst {
			return true
		}
	}
	return false
}

// decide draws this packet's fate on the src→dst link at time now. The
// draws consumed depend only on the link's effective configuration —
// never on dupOK or the packet's kind — and calls happen in simulation
// event order, so the PRNG stream is reproducible. dupOK is false for
// reliable-transport ops (RDMA, acks): their hardware dedups in the
// transport layer, so an injected duplicate can never reach the
// application.
func (fs *faultState) decide(src, dst NodeID, dupOK bool, now vtime.Time) (drop, dup bool, jitter time.Duration) {
	lf, _ := fs.effective(src, dst, now)
	l := Link{src, dst}
	fs.linkCount[l]++
	if lf.DropEvery > 0 {
		drop = fs.linkCount[l]%lf.DropEvery == 0
	} else if lf.DropRate > 0 {
		drop = fs.rng.Float64() < lf.DropRate
	}
	if lf.DupRate > 0 {
		dup = fs.rng.Float64() < lf.DupRate && dupOK
	}
	if lf.JitterMax > 0 {
		jitter = time.Duration(fs.rng.Int63n(int64(lf.JitterMax)))
	}
	if drop {
		fs.stats.Dropped++
		dup = false
	} else if dup {
		fs.stats.Duplicated++
	}
	if jitter > 0 && !drop {
		fs.stats.Jittered++
	}
	return drop, dup, jitter
}

// scaleWire stretches a serialization time by the link's degraded
// bandwidth factor at time now. When the winning configuration comes
// from a ramping schedule event still inside its ramp, the factor is
// interpolated linearly from nominal toward the configured value.
func (fs *faultState) scaleWire(src, dst NodeID, wire time.Duration, now vtime.Time) time.Duration {
	lf, win := fs.effective(src, dst, now)
	f := lf.BandwidthFactor
	if f == 0 || f == 1 {
		return wire
	}
	if win >= 0 {
		if ev := &fs.plan.Schedule[win]; ev.Ramp > 0 {
			elapsed := now.Sub(ev.At)
			if elapsed < ev.Ramp {
				frac := float64(elapsed) / float64(ev.Ramp)
				f = 1 - (1-f)*frac
			}
		}
	}
	if f <= 0 || f >= 1 {
		return wire
	}
	return time.Duration(float64(wire) / f)
}

// stallAdjust returns the earliest time node's egress engine can start
// a transfer wanted at time t, and whether the engine is permanently
// wedged at t (blackholed).
func (fs *faultState) stallAdjust(node NodeID, t vtime.Time) (vtime.Time, bool) {
	// A finite window can push the start time into a later window, so
	// iterate to a fixpoint; windows are finitely many.
	for moved := true; moved; {
		moved = false
		for _, w := range fs.plan.Stalls {
			if w.Node != node || t < w.Start || t >= w.End {
				continue
			}
			if w.End == Forever {
				fs.stats.Blackholed++
				return t, true
			}
			t = w.End
			fs.stats.Stalled++
			moved = true
		}
	}
	return t, false
}
