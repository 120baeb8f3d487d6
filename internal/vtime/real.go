package vtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ovlp/internal/clock"
)

// Real-clock execution mode.
//
// A Sim built with NewRealSim runs its procs as genuinely concurrent
// goroutines against a clock.Clock instead of replaying an event
// heap. The kernel's core invariant — at any instant exactly one
// context executes simulation code — is preserved by a single kernel
// lock (rt.mu): every proc holds it while running and releases it
// only while sleeping in Compute or blocked in Park, and every timer
// callback acquires it before running. Protocol code written for the
// coroutine discipline therefore runs unchanged and data-race-free,
// while modelled compute and wire transfers overlap in real time
// because the lock is dropped for the duration of every sleep.
//
// The cost of the single lock is that protocol segments between
// blocking points serialize; those segments are microsecond-scale
// library code whose cost real-mode calibration measures anyway, so
// the serialization is part of the measured machine, not a modelling
// error.

// ErrAborted is wrapped into the kill delivered to every live proc
// when a real-clock run hits its deadline: unlike virtual mode, real
// goroutines cannot be left frozen, so the kernel unwinds them.
var ErrAborted = errors.New("vtime: real-clock run aborted")

// abortGrace bounds how long RunE waits for killed procs to unwind
// after a deadline abort before giving up on stragglers.
const abortGrace = 5 * time.Second

// realState is the real-clock side of a Sim; nil on virtual sims.
type realState struct {
	clk   clock.Clock
	epoch time.Time // clk reading at construction; Now() is clk.Since(epoch)

	mu sync.Mutex     // the kernel lock
	wg sync.WaitGroup // live proc goroutines

	started  bool
	stopped  bool // set once RunE returns; late timer callbacks become no-ops
	current  *Proc
	pending  []func() // proc starts queued before RunE
	firstErr error    // first non-abort proc panic
}

// NewRealSim returns a simulator that executes procs concurrently
// against clk (nil means the machine's monotonic clock). Virtual time
// zero corresponds to the moment of this call.
func NewRealSim(clk clock.Clock) *Sim {
	if clk == nil {
		clk = clock.Real()
	}
	return &Sim{rt: &realState{clk: clk, epoch: clk.Now()}}
}

// IsReal reports whether the sim executes on a real (or fake) clock
// rather than the virtual event heap.
func (s *Sim) IsReal() bool { return s.rt != nil }

// ClockDomain names the kind of time the sim's timestamps are
// denominated in.
func (s *Sim) ClockDomain() clock.Domain {
	if s.rt != nil {
		return s.rt.clk.Domain()
	}
	return clock.Virtual
}

// realNow is Now for real sims: nanoseconds of clock time since the
// sim was constructed. Lock-free — the clock is monotonic.
func (s *Sim) realNow() Time { return Time(s.rt.clk.Since(s.rt.epoch)) }

// spawnReal registers (and, mid-run, immediately launches) a proc.
// Pre-run callers are single-threaded; mid-run callers hold the
// kernel lock, per the Spawn contract that mid-run spawning happens
// only from within the simulation.
func (s *Sim) spawnReal(name string, fn func(p *Proc)) *Proc {
	rt := s.rt
	p := &Proc{
		sim:   s,
		id:    len(s.procs),
		name:  name,
		state: stateNew,
		cond:  sync.NewCond(&rt.mu),
	}
	s.procs = append(s.procs, p)
	s.live++
	start := func() { s.startRealProc(p, fn) }
	if !rt.started {
		rt.pending = append(rt.pending, start)
	} else {
		start()
	}
	return p
}

// startRealProc launches p's goroutine. The goroutine runs fn holding
// the kernel lock, releasing it only inside Compute/Park.
func (s *Sim) startRealProc(p *Proc, fn func(p *Proc)) {
	rt := s.rt
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		rt.mu.Lock()
		rt.current = p
		p.state = stateRunning
		if s.obs != nil {
			s.obs.ProcResumed(p)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					// The deadline abort unwinds procs with ErrAborted;
					// that is a consequence of the failure, not its
					// cause, so it never claims the firstErr slot.
					err, isErr := r.(error)
					if rt.firstErr == nil && !(isErr && errors.Is(err, ErrAborted)) {
						if isErr {
							rt.firstErr = fmt.Errorf("proc %q panicked: %w", p.name, err)
						} else {
							rt.firstErr = fmt.Errorf("proc %q panicked: %v", p.name, r)
						}
					}
				}
			}()
			if p.killed != nil {
				err := p.killed
				p.killed = nil
				panic(err)
			}
			fn(p)
		}()
		p.state = stateDone
		s.live--
		if s.obs != nil {
			s.obs.ProcDone(p)
		}
		rt.current = nil
		rt.mu.Unlock()
	}()
}

// computeReal models computation by really sleeping for d with the
// kernel lock released, so other procs and the fabric run meanwhile.
// Caller (the proc's goroutine) holds the kernel lock.
func (p *Proc) computeReal(d time.Duration) {
	s := p.sim
	rt := s.rt
	p.state = stateComputing
	p.blockedSince = s.realNow()
	p.blockedAt = "Compute"
	if s.obs != nil {
		s.obs.ProcBlocked(p, stateComputing.String(), "Compute")
	}
	rt.current = nil
	rt.mu.Unlock()
	rt.clk.Sleep(d)
	rt.mu.Lock()
	rt.current = p
	p.state = stateRunning
	if s.obs != nil {
		s.obs.ProcResumed(p)
	}
	if p.killed != nil {
		err := p.killed
		p.killed = nil
		panic(err)
	}
}

// parkReal blocks on the proc's condition variable until a permit
// arrives (or a kill). Exact LockSupport semantics, shared with the
// virtual path: a pending permit is consumed without blocking.
func (p *Proc) parkReal(where string) {
	s := p.sim
	rt := s.rt
	if p.permit {
		p.permit = false
		return
	}
	p.state = stateParked
	p.blockedSince = s.realNow()
	p.blockedAt = where
	if s.obs != nil {
		s.obs.ProcBlocked(p, stateParked.String(), where)
	}
	rt.current = nil
	for !p.permit && p.killed == nil {
		p.cond.Wait()
	}
	p.permit = false
	rt.current = p
	p.state = stateRunning
	if s.obs != nil {
		s.obs.ProcResumed(p)
	}
	if p.killed != nil {
		err := p.killed
		p.killed = nil
		panic(err)
	}
}

// unparkReal grants a permit. Caller is in simulation context, i.e.
// holds the kernel lock (a proc, or a timer callback).
func (p *Proc) unparkReal() {
	s := p.sim
	if p.state == stateParked && !p.permit {
		if eo, ok := s.obs.(EdgeObserver); ok {
			eo.ProcUnparked(p, s.rt.current)
		}
		p.permit = true
		p.cond.Signal()
		return
	}
	p.permit = true
}

// killReal marks p for death. A parked proc is woken to receive the
// panic; a computing proc receives it when its sleep ends (real
// sleeps cannot be interrupted — the few microseconds to milliseconds
// of modelled compute bound the delivery latency).
func (p *Proc) killReal(err error) {
	if p.state == stateDone || p.killed != nil {
		return
	}
	p.killed = err
	if p.state == stateParked {
		p.permit = false
		p.cond.Signal()
	}
}

// afterReal arms fn to run on the clock d from now, wrapped to take
// the kernel lock (so fn sees the same single-context world as a
// virtual event callback). Caller is in simulation context and holds
// the kernel lock — which is why cancel does not re-lock. A
// non-positive d fires from a fresh goroutine as soon as the lock is
// free rather than synchronously, matching the virtual rule that
// After(0) runs behind the current context.
func (s *Sim) afterReal(d time.Duration, fn func()) (cancel func()) {
	rt := s.rt
	cancelled := false
	run := func() {
		rt.mu.Lock()
		if !cancelled && !rt.stopped {
			prev := rt.current
			rt.current = nil
			fn()
			rt.current = prev
		}
		rt.mu.Unlock()
	}
	if d <= 0 {
		go run()
		return func() { cancelled = true }
	}
	tmr := rt.clk.AfterFunc(d, run)
	return func() {
		cancelled = true
		tmr.Stop()
	}
}

// Enter runs fn in simulation context from an external goroutine —
// the real-mode equivalent of virtual event context, used by fabric
// wire/DMA goroutines to deliver completions. fn runs holding the
// kernel lock with no current proc; it must not block (no Compute or
// Park), though it may Unpark procs, schedule timers and touch any
// simulation state. Once RunE has returned, fn is discarded: the run
// is over and late wire activity must not mutate its artifacts.
// Virtual sims panic — external goroutines cannot enter a
// coroutine-discipline simulation.
func (s *Sim) Enter(fn func()) {
	rt := s.rt
	if rt == nil {
		panic("vtime: Enter on a virtual sim")
	}
	rt.mu.Lock()
	if !rt.stopped {
		prev := rt.current
		rt.current = nil
		fn()
		rt.current = prev
	}
	rt.mu.Unlock()
}

// runRealE starts every queued proc and waits for all of them, under
// an optional real-time deadline watchdog. On deadline it diagnoses a
// DeadlockError exactly like virtual mode, then — unlike virtual
// mode, which freezes procs — aborts every live proc so no goroutine
// outlives the run.
func (s *Sim) runRealE() (t Time, err error) {
	rt := s.rt
	rt.mu.Lock()
	if s.running {
		rt.mu.Unlock()
		panic("vtime: Run called reentrantly")
	}
	s.running = true
	rt.started = true
	starts := rt.pending
	rt.pending = nil
	for _, st := range starts {
		st()
	}
	rt.mu.Unlock()

	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()

	var de *DeadlockError
	if s.deadline > 0 {
		tmr := rt.clk.NewTimer(s.deadline.Duration() - rt.clk.Since(rt.epoch))
		select {
		case <-done:
			tmr.Stop()
		case <-tmr.C():
			de = rt.abort(s)
			select {
			case <-done:
			case <-time.After(abortGrace):
				// Stragglers are mid-sleep; stopped (set below) keeps
				// their late timer callbacks from touching anything.
			}
		}
	} else {
		<-done
	}

	rt.mu.Lock()
	rt.stopped = true
	s.now = s.realNow()
	perr := rt.firstErr
	rt.mu.Unlock()
	s.running = false
	if de != nil {
		return s.now, de
	}
	return s.now, perr
}

// abort diagnoses the wedged run and delivers an ErrAborted kill to
// every live proc.
func (rt *realState) abort(s *Sim) *DeadlockError {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s.now = s.realNow()
	de := s.deadlockError(fmt.Sprintf("deadline %v expired", s.deadline))
	if s.obs != nil {
		s.obs.Deadlock(de)
	}
	for _, p := range s.procs {
		if p.state != stateDone {
			p.killReal(fmt.Errorf("%w: %s", ErrAborted, de.Reason))
		}
	}
	return de
}
