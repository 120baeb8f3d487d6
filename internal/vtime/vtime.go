// iter.Pull is Go 1.23 API and go.mod stays at go 1.22 (bench/go.mod
// cannot require a newer module than itself); the constraint gives this
// file the language version go vet checks iter against.

//go:build go1.23

// Package vtime implements a deterministic discrete-event simulation
// kernel with virtual time.
//
// A Sim owns a virtual clock and an event heap. Work is performed by
// procs — coroutines: at any instant exactly one of them, or RunE's
// own goroutine, holds the baton and executes, so every run of a given
// program is bit-for-bit reproducible. Events that fire at the same
// virtual time execute in the order they were scheduled.
//
// There is no scheduler goroutine, no channel and no lock. Each proc is
// created with iter.Pull, and RunE is a trampoline that switches into
// whichever proc was dispatched last. A proc that blocks (Compute, Park,
// returning) keeps the baton and fires events from the heap on its own
// coroutine until one of them dispatches a proc: if that proc is
// itself it just returns — no switch at all — otherwise it records the
// proc in Sim.pending and yields to RunE, which switches into it. A
// hand-off is two runtime coroutine switches on one OS thread and never
// enters the Go scheduler. Event context therefore means "Sim.current
// is nil", not a particular goroutine: After callbacks run on whichever
// coroutine holds the baton, never concurrently with anything else.
// The run ends — events exhausted, deadline reached, or a panic — when
// a proc yields with nothing pending.
//
// Procs model computation by calling Compute, which advances the
// virtual clock without consuming real CPU time proportional to the
// modelled duration, and synchronize through Park/Unpark (a permit
// semaphore in the style of LockSupport) or through callbacks
// scheduled with After.
//
// A real-clock Sim (NewRealSim) is the same kernel waiting on a clock:
// Now reads it, the loop sleeps until the head event's instant before
// firing it, and Compute never skips that wait. Every proc is blocked
// on the heap whenever the kernel sleeps, so "all waiters are blocked,
// move to the next deadline" is the one loop on both clocks — the
// virtual one jumps where the real one waits.
//
// The kernel is the substrate for the fabric, mpi and armci packages:
// NIC DMA engines are event chains, ranks are procs, and the overlap
// instrumentation reads its time-stamps from the sim's clock.
package vtime

import (
	"fmt"
	"iter"
	"time"

	"ovlp/internal/clock"
)

// Time is an instant in virtual time, in nanoseconds since the start
// of the simulation.
type Time int64

// Duration converts a virtual-time span to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// evKind says what firing an event does. Only evFunc runs caller code;
// the rest are the kernel's own wake-ups, kept as plain values so that
// scheduling one allocates nothing.
type evKind uint8

const (
	evFunc   evKind = iota // run fn (After, AfterCancel)
	evStart                // create p's coroutine and dispatch it
	evTimer                // p's Compute elapsed; live only while p.timer == seq
	evUnpark               // p was granted a permit while parked
	evKill                 // p was killed while blocked
)

// event is what firing one entry of the schedule does. A dead event —
// cancelled, or a Compute timer its proc no longer waits on — is
// skipped without advancing the clock, so stale timers (e.g. a
// retransmission timeout whose acknowledgment arrived) never stretch
// the simulated duration.
type event struct {
	kind   evKind
	p      *Proc
	fn     func()
	cancel *bool // AfterCancel's flag; nil when the event cannot be cancelled
}

// key is an event's place in the schedule: the heap orders keys by
// (at, seq), so that simultaneous events run in scheduling order, and
// slot finds the event in Sim.slab. Keys carry no pointers, so sifting
// them is plain memory moves — no write barrier however often the
// collector is running.
type key struct {
	at   Time
	seq  uint64
	slot int
}

func (k *key) before(o *key) bool {
	return k.at < o.at || k.at == o.at && k.seq < o.seq
}

// dead reports whether the event under k would be skipped.
func (s *Sim) dead(k *key) bool {
	e := &s.slab[k.slot]
	return e.cancel != nil && *e.cancel || e.kind == evTimer && e.p.timer != k.seq
}

// push stores e in a free slab slot and inserts its key into the binary
// min-heap s.events.
func (s *Sim) push(at Time, seq uint64, e event) {
	k := key{at: at, seq: seq}
	if n := len(s.free); n > 0 {
		k.slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.slab[k.slot] = e
	} else {
		k.slot = len(s.slab)
		s.slab = append(s.slab, e)
	}
	h := append(s.events, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	s.events = h
}

// pop removes the earliest key and returns it with its event, whose
// slot it frees.
func (s *Sim) pop() (key, event) {
	h := s.events
	top, n := h[0], len(h)-1
	k := h[n] // sifted down from the root into the n slots that remain
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&k) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = k
	}
	s.events = h[:n]
	e := s.slab[top.slot]
	s.slab[top.slot] = event{} // drop the vacated slot's references
	s.free = append(s.free, top.slot)
	return top, e
}

// procState describes what a proc is currently doing; it is reported
// in deadlock dumps.
type procState int

const (
	stateNew procState = iota
	stateRunning
	stateComputing // blocked in Compute until a timer fires
	stateParked    // blocked in Park until Unpark
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateRunning:
		return "running"
	case stateComputing:
		return "computing"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	}
	return "invalid"
}

// Observer receives kernel scheduling callbacks: every proc
// block/resume transition, proc completion, and deadlock diagnoses.
// All callbacks run in simulation context under the coroutine
// discipline (exactly one goroutine executing), so an observer needs
// no locking; it must not call back into the kernel (no Compute, Park
// or scheduling) — observation is free in virtual time.
type Observer interface {
	// ProcBlocked fires when p gives up control: state is the
	// blocked state ("computing", "parked"), where the blocking call
	// site label.
	ProcBlocked(p *Proc, state, where string)
	// ProcResumed fires when p regains control, including its first
	// dispatch after Spawn.
	ProcResumed(p *Proc)
	// ProcDone fires when p's function returns (or panics).
	ProcDone(p *Proc)
	// Deadlock fires when RunE diagnoses a wedged simulation, with the
	// same error it is about to return.
	Deadlock(e *DeadlockError)
}

// EdgeObserver is an optional extension of Observer exposing the
// event-graph edges of the schedule: which context released each
// parked proc. Observers that also implement it (checked by type
// assertion, so plain Observers keep working) receive one callback per
// effective wake-up — the parked→runnable transitions that offline
// analysis (critical-path extraction) needs to hop between timelines.
type EdgeObserver interface {
	Observer
	// ProcUnparked fires when a parked p is granted the wake-up that
	// will dispatch it, before the dispatch runs. by is the proc whose
	// execution called Unpark, or nil when the wake came from event
	// context (a timer, a fabric delivery). Redundant Unparks — the
	// proc not parked, or a permit already pending — do not fire.
	ProcUnparked(p *Proc, by *Proc)
}

// Sim is a deterministic discrete-event simulator, on virtual time
// (NewSim) or waiting on a clock (NewRealSim). The zero value is not
// usable.
type Sim struct {
	now      Time // instant of the last event fired; the clock itself on a virtual sim
	seq      uint64
	events   []key   // min-heap on (at, seq)
	slab     []event // the events the keys point at, by key.slot
	free     []int   // vacant slab slots
	procs    []*Proc
	live     int  // procs not yet done
	deadline Time // 0 = no watchdog
	obs      Observer

	current *Proc // proc executing its own code; nil while events fire
	next    *Proc // proc the event being fired dispatches
	pending *Proc // proc the yielding one dispatched, for RunE to switch to; nil ends the run

	panicked any // what ended the run early: a proc's wrapped panic, or an event's raw one
	running  bool

	// clk is non-nil on a real-clock sim: time is clk's, read since
	// epoch, and an event's instant is waited for instead of jumped to.
	clk   clock.Clock
	epoch time.Time
}

// SetObserver installs the kernel observer (nil to remove). It must be
// called before Run; observing a simulation mid-flight would see spans
// with no start.
func (s *Sim) SetObserver(o Observer) { s.obs = o }

// NewSim returns an empty simulator at virtual time zero.
func NewSim() *Sim {
	return &Sim{}
}

// NewRealSim returns a simulator that runs on clk (nil means the
// machine's monotonic clock): the same events in the same order as a
// virtual sim would fire them, each no earlier than its instant on
// clk. Time zero is the moment of this call.
func NewRealSim(clk clock.Clock) *Sim {
	if clk == nil {
		clk = clock.Real()
	}
	return &Sim{clk: clk, epoch: clk.Now()}
}

// ClockDomain names the kind of time the sim's timestamps are
// denominated in.
func (s *Sim) ClockDomain() clock.Domain {
	if s.clk != nil {
		return s.clk.Domain()
	}
	return clock.Virtual
}

// Now returns the current time: the event clock on a virtual sim; on a
// real one, nanoseconds of clock time since construction as read at
// the latest dispatch. Either way it stands still while a proc runs
// between two blocking points, so every stamp taken at one moment —
// a call's exit, its trace span's end, a transfer instant — agrees.
func (s *Sim) Now() Time { return s.now }

// await blocks a real sim until its clock reads t — it sleeps what is
// left, which is nothing for an instant already past — and returns the
// clock's reading after. It is the only place a real sim reads its
// clock.
func (s *Sim) await(t Time) Time {
	s.clk.Sleep(t.Sub(Time(s.clk.Since(s.epoch))))
	return Time(s.clk.Since(s.epoch))
}

// Proc is a simulated thread of control. Procs are created with
// Sim.Spawn and run under the kernel's coroutine discipline: all Proc
// methods must be called from the proc's own goroutine, except Unpark,
// which may be called from any simulation context (another proc or an
// After callback).
type Proc struct {
	sim    *Sim
	id     int
	name   string
	fn     func(p *Proc)
	state  procState
	permit bool // pending Unpark while not parked

	// The two halves of the proc's coroutine (iter.Pull): RunE calls
	// next to switch into the proc, the proc calls yield to switch back.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	blockedSince Time   // for deadlock dumps
	blockedAt    string // label of the blocking call site

	killed error  // pending Kill, delivered as a panic at the next resume
	timer  uint64 // seq of the pending Compute timer; 0 when none, or once Kill cancelled it
}

// ID returns the proc's index in spawn order, starting at zero.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator the proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.Now() }

// Spawn registers a new proc that will execute fn when Run is called.
// Spawning after Run has started is allowed only from within the
// simulation (a proc or callback); the new proc starts at the current
// virtual time.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:   s,
		id:    len(s.procs),
		name:  name,
		fn:    fn,
		state: stateNew,
	}
	s.procs = append(s.procs, p)
	s.live++
	s.schedule(s.Now(), event{kind: evStart, p: p})
	return p
}

// run is the body of p's coroutine, created when its evStart fires and
// entered at its first dispatch.
func (p *Proc) run(yield func(struct{}) bool) {
	s := p.sim
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			// Preserve typed panic values (library CommErrors and
			// friends) so errors.Is/As work on what Run surfaces.
			if err, ok := r.(error); ok {
				s.panicked = fmt.Errorf("proc %q panicked: %w", p.name, err)
			} else {
				s.panicked = fmt.Errorf("proc %q panicked: %v", p.name, r)
			}
		}
		p.state = stateDone
		s.live--
		if s.obs != nil {
			s.obs.ProcDone(p)
		}
		s.pass(p)
	}()
	if s.obs != nil {
		s.obs.ProcResumed(p)
	}
	p.deliverKill()
	p.fn(p)
}

// deliverKill raises a pending Kill, exactly once, at the point where p
// regains control: the panic unwinds the proc's stack; cleanup code
// that recovers it may block again without re-triggering.
func (p *Proc) deliverKill() {
	if p.killed != nil {
		err := p.killed
		p.killed = nil
		panic(err)
	}
}

// schedule enqueues e to fire at time at and returns its seq.
func (s *Sim) schedule(at Time, e event) uint64 {
	if at < s.now {
		panic(fmt.Sprintf("vtime: scheduling event in the past: %v < %v", at, s.now))
	}
	s.seq++
	s.push(at, s.seq, e)
	return s.seq
}

// dispatch names p as the proc the event being fired hands control to.
func (s *Sim) dispatch(p *Proc) {
	if s.next != nil {
		panic(fmt.Sprintf("vtime: one event dispatched both %q and %q", s.next.name, p.name))
	}
	s.next = p
}

// fire executes one event in event context.
func (s *Sim) fire(e event) {
	p := e.p
	switch e.kind {
	case evFunc:
		e.fn()
	case evStart:
		p.next, _ = iter.Pull(p.run) // leftover procs stay suspended, so stop is never needed
		s.dispatch(p)
	case evTimer:
		p.timer = 0
		s.dispatch(p)
	case evUnpark:
		// Stale if a Kill has since taken the permit back.
		if p.state == stateParked && p.permit {
			p.permit = false
			s.dispatch(p)
		}
	case evKill:
		if p.state == stateParked || p.state == stateComputing {
			s.dispatch(p)
		}
	}
}

// advance fires events in (at, seq) order on the calling goroutine
// until one dispatches a proc, which it marks running and returns. A
// nil return means the run is over: events exhausted, the deadline
// reached (the event that crossed it stays queued), or a panic, stored
// in s.panicked. A panic out of an event — a callback's, or the
// kernel's own — is caught here, not by whichever proc happens to hold
// the baton: it must neither be blamed on that proc nor unwind through
// its frames, where a rank's abort handler would swallow it.
func (s *Sim) advance() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			s.panicked, next = r, nil
		}
	}()
	for s.panicked == nil && len(s.events) > 0 {
		top := &s.events[0]
		if s.dead(top) {
			s.pop() // skipped without advancing the clock
			continue
		}
		if s.deadline > 0 && top.at >= s.deadline && s.live > 0 {
			return nil
		}
		now := top.at
		if s.clk != nil {
			// Host time spent since the last dispatch is charged here.
			now = max(s.now, now, s.await(now))
		} else if now < s.now {
			panic("vtime: time went backwards")
		}
		_, e := s.pop()
		s.now = now
		s.fire(e)
		if p := s.next; p != nil {
			s.next = nil
			s.current = p
			p.state = stateRunning
			return p
		}
	}
	return nil
}

// pass is called on p's coroutine when p has just blocked or finished:
// p keeps the baton and fires events itself until one dispatches a
// proc. If that is p again no switch happened at all and pass reports
// true; otherwise it leaves the dispatched proc — nil when the run is
// over — in s.pending for RunE, and the caller must yield (or return).
func (s *Sim) pass(p *Proc) (self bool) {
	s.current = nil
	next := s.advance()
	if next == p {
		return true
	}
	s.pending = next
	return false
}

// delay checks an After delay. A negative one is a bug on a virtual
// sim. On a real sim it is what is left of an instant the caller worked
// out from an earlier reading of a clock that has since moved past it,
// and means now.
func (s *Sim) delay(d time.Duration) time.Duration {
	if d >= 0 {
		return d
	}
	if s.clk == nil {
		panic("vtime: negative delay")
	}
	return 0
}

// After schedules fn to run in event context d from now. It may be
// called from any simulation context. fn must not block; to perform
// blocking work, have fn Unpark a proc or Spawn one.
func (s *Sim) After(d time.Duration, fn func()) {
	s.schedule(s.Now().Add(s.delay(d)), event{fn: fn})
}

// AfterCancel is After returning a cancel function. A cancelled event
// is discarded without running and — unlike an event that fires as a
// no-op — without advancing the virtual clock, so speculative timers
// (retransmission timeouts, watchdogs) do not distort the measured run
// duration. Cancelling twice, or after the event fired, is a no-op.
func (s *Sim) AfterCancel(d time.Duration, fn func()) (cancel func()) {
	cancelled := new(bool)
	s.schedule(s.Now().Add(s.delay(d)), event{fn: fn, cancel: cancelled})
	return func() { *cancelled = true }
}

// block gives up control until an event dispatches p again. Must be
// called from the proc's goroutine.
func (p *Proc) block(st procState, where string) {
	p.state = st
	p.blockedSince = p.sim.Now()
	p.blockedAt = where
	if p.sim.obs != nil {
		p.sim.obs.ProcBlocked(p, st.String(), where)
	}
	if !p.sim.pass(p) {
		p.yield(struct{}{})
	}
	if p.sim.obs != nil {
		p.sim.obs.ProcResumed(p)
	}
	p.deliverKill()
}

// Compute advances the proc's view of time by d, modelling a stretch
// of user computation (or any busy period). Other events continue to
// fire during the interval. Compute(0) yields to already-scheduled
// events at the current instant and then continues. When no queued
// event can fire during the interval the call only moves the virtual
// clock and never touches the heap — indistinguishable, to the program
// and to an Observer, from pushing a timer and popping it straight
// back. A real clock cannot be moved, so there the timer is always
// pushed and waited for.
func (p *Proc) Compute(d time.Duration) {
	if d < 0 {
		panic("vtime: negative compute duration")
	}
	s := p.sim
	at := s.Now().Add(d)
	if (len(s.events) > 0 && at >= s.events[0].at) || (s.deadline != 0 && at >= s.deadline) || s.clk != nil {
		p.timer = s.schedule(at, event{kind: evTimer, p: p})
		p.block(stateComputing, "Compute")
		return
	}
	// Lookahead: nothing queued can fire at or before the proc's own
	// timer — the heap is empty or its head lies strictly later, and at
	// is inside the deadline. Pushing the timer would make it the head;
	// the loop would pop it at once, fire nothing else — no dead event
	// sits above the head to be dropped — and dispatch p back to itself.
	// So the timer is never pushed: it still takes its seq (later events
	// keep theirs), the observer sees the same two callbacks at the same
	// two instants, and a Kill that arrived while p ran is delivered as
	// at any resume. The comparison is strict because an event already
	// queued for at has the lower seq and must fire first.
	s.seq++
	if s.obs != nil {
		s.obs.ProcBlocked(p, stateComputing.String(), "Compute")
	}
	s.now = at
	if s.obs != nil {
		s.obs.ProcResumed(p)
	}
	p.deliverKill()
}

// Sleep is an alias for Compute, for callers modelling idle waiting
// rather than computation.
func (p *Proc) Sleep(d time.Duration) { p.Compute(d) }

// Yield reschedules the proc at the current virtual time behind any
// events already queued for this instant.
func (p *Proc) Yield() { p.Compute(0) }

// Park blocks the proc until another simulation context calls Unpark.
// If a permit is pending (Unpark happened since the last Park), Park
// consumes it and returns immediately. The where label is reported in
// deadlock dumps.
func (p *Proc) Park(where string) {
	if p.permit {
		p.permit = false
		return
	}
	p.block(stateParked, where)
}

// Unpark makes a permit available to p: if p is parked it resumes at
// the current virtual time; otherwise its next Park returns
// immediately. Calling Unpark repeatedly before the proc parks is
// idempotent. Unpark must be called from simulation context (a proc or
// an After callback), never from outside Run.
func (p *Proc) Unpark() {
	if p.state == stateParked && !p.permit {
		p.permit = true
		s := p.sim
		if eo, ok := s.obs.(EdgeObserver); ok {
			eo.ProcUnparked(p, s.current)
		}
		s.schedule(s.Now(), event{kind: evUnpark, p: p})
		return
	}
	p.permit = true
}

// Kill schedules err to be delivered to p as a panic, modelling the
// abrupt death of the simulated thread (a crashed node). If p is
// blocked (parked or computing) it is resumed immediately at the
// current virtual time and the panic unwinds from the blocking call;
// if it is running or not yet started, the panic is delivered at its
// next blocking call (or before its body runs, for a new proc). The
// panic value is exactly err, so a deferred recover in the proc's
// stack (e.g. a rank's abort handler) can identify the crash, record
// it, and let the rest of the simulation continue. Killing a finished
// proc, or one with a kill already pending, is a no-op. Kill must be
// called from simulation context, like Unpark.
func (p *Proc) Kill(err error) {
	if err == nil {
		panic("vtime: Kill with nil error")
	}
	if p.state == stateDone || p.killed != nil {
		return
	}
	p.killed = err
	switch p.state {
	case stateParked:
		// Clear any pending permit so a stale Unpark event (which
		// re-checks state and permit) cannot double-dispatch.
		p.permit = false
	case stateComputing:
		// Cancel the Compute timer so it cannot resume the proc a
		// second time (or resume a later, unrelated Compute early).
		p.timer = 0
	default:
		// New or running: the pending kill is delivered by the killed
		// check at the proc's next resume or before its body runs.
		return
	}
	p.sim.schedule(p.sim.Now(), event{kind: evKill, p: p})
}

// SetDeadline arms a watchdog: if the simulation reaches virtual time d
// with procs still live, RunE stops and returns a *DeadlockError whose
// Reason says the deadline expired. A zero deadline disables the
// watchdog. The watchdog catches livelock (e.g. a retransmission loop
// that schedules events forever without making progress), which the
// event-exhaustion check alone cannot detect.
func (s *Sim) SetDeadline(d Time) { s.deadline = d }

// ProcDump is the state of one unfinished proc at the moment a
// deadlock was diagnosed.
type ProcDump struct {
	ID    int
	Name  string
	State string // "parked", "computing", "new", "running"
	Where string // label of the blocking call site
	Since Time   // virtual time the proc blocked
}

// DeadlockError reports that the simulation could not run to
// completion: events were exhausted (or the deadline expired) while
// procs were still blocked. Procs lists every unfinished proc in spawn
// order with what it was waiting on.
type DeadlockError struct {
	Now    Time
	Reason string
	Procs  []ProcDump
}

func (e *DeadlockError) Error() string {
	s := fmt.Sprintf("vtime: deadlock: %s: %d proc(s) blocked at t=%v",
		e.Reason, len(e.Procs), e.Now)
	for _, p := range e.Procs {
		s += fmt.Sprintf("\n  proc %d %q: %s in %s since t=%v",
			p.ID, p.Name, p.State, p.Where, p.Since)
	}
	return s
}

// deadlockError builds the structured dump of every non-finished proc.
func (s *Sim) deadlockError(reason string) *DeadlockError {
	e := &DeadlockError{Now: s.Now(), Reason: reason}
	for _, p := range s.procs { // already in id order
		if p.state == stateDone {
			continue
		}
		e.Procs = append(e.Procs, ProcDump{
			ID:    p.id,
			Name:  p.name,
			State: p.state.String(),
			Where: p.blockedAt,
			Since: p.blockedSince,
		})
	}
	return e
}

// RunE executes the simulation until no events remain and returns the
// final virtual time. If events are exhausted (or the deadline set with
// SetDeadline expires) while procs are still blocked, it returns a
// *DeadlockError describing every stuck proc. A panic from a proc is
// recovered and returned as an error, wrapped so errors.Is/As see the
// original value when it was itself an error.
func (s *Sim) RunE() (t Time, err error) {
	if s.running {
		panic("vtime: Run called reentrantly")
	}
	s.running = true
	// The trampoline: switch into the dispatched proc; it comes back —
	// yielding or finished — having fired events up to the next dispatch.
	for p := s.advance(); p != nil; p = s.pending {
		s.pending = nil
		p.next()
	}
	s.running = false
	if pv := s.panicked; pv != nil {
		s.panicked = nil
		if e, ok := pv.(error); ok {
			return s.Now(), e
		}
		return s.Now(), fmt.Errorf("vtime: %v", pv)
	}
	if s.live > 0 {
		reason := "no pending events"
		if len(s.events) > 0 { // advance stopped short of the event that crosses the deadline
			if s.clk != nil {
				s.await(s.deadline)
			}
			s.now = s.deadline
			reason = fmt.Sprintf("deadline %v expired", s.deadline)
		}
		de := s.deadlockError(reason)
		if s.obs != nil {
			s.obs.Deadlock(de)
		}
		return de.Now, de
	}
	return s.Now(), nil
}

// Run is RunE for callers that treat failure as fatal: it panics with
// the error (a *DeadlockError when the simulation wedged, or the
// proc's wrapped panic value) instead of returning it.
func (s *Sim) Run() Time {
	t, err := s.RunE()
	if err != nil {
		panic(err)
	}
	return t
}
