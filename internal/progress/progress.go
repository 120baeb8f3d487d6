// Package progress is the pluggable engine that decides *who* advances
// pending nonblocking-collective schedules, and when. The three modes
// reproduce the progress strategies whose overlap consequences the
// framework characterizes:
//
//   - Manual: nobody progresses between library calls. Schedules
//     advance only when the application itself re-enters the library
//     (Test/Iprobe/Wait...), so a rank that computes without polling
//     starves its own collectives — the baseline the paper's
//     instrumentation exposes.
//   - Piggyback: every library call entry and exit also polls the
//     engine once, the "progress whenever MPI runs" strategy of
//     MPICH-style libraries. Frequent callers get good progress for
//     free; compute-bound phases still starve.
//   - Thread: a dedicated progress thread, modeled as an extra vtime
//     goroutine per rank that wakes every Quantum of virtual time and
//     polls, independent of what the application does. This is the
//     asynchronous-progress configuration; it recovers overlap at the
//     cost of the quantum's polling latency and its CPU share.
//
// The engine is transport-agnostic: the owning rank supplies a Poll
// hook (one progress sweep, reporting whether anything advanced) and a
// Wake hook (unblock the application if it is parked waiting on a
// completion). Determinism is preserved — the thread is driven purely
// by the virtual-time quantum timer, so a run's interleaving is a
// function of the configuration alone.
package progress

import (
	"fmt"
	"strings"
	"time"

	"ovlp/internal/vtime"
)

// Mode selects the progress strategy.
type Mode int

const (
	// Manual: progress happens only inside application library calls.
	Manual Mode = iota
	// Piggyback: additionally poll on every call entry and exit.
	Piggyback
	// Thread: a dedicated per-rank progress thread polls every
	// Quantum of virtual time.
	Thread
)

func (m Mode) String() string {
	switch m {
	case Manual:
		return "manual"
	case Piggyback:
		return "piggyback"
	case Thread:
		return "thread"
	}
	return "invalid"
}

// ParseMode parses a -progress flag value.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "manual":
		return Manual, nil
	case "piggyback", "call":
		return Piggyback, nil
	case "thread", "async":
		return Thread, nil
	}
	return Manual, fmt.Errorf("progress: unknown mode %q (want manual, piggyback or thread)", s)
}

// DefaultQuantum is the progress thread's wake interval when the
// configuration leaves it zero: long enough that polling overhead is
// marginal, short enough to keep multi-round schedules moving through
// a typical compute phase.
const DefaultQuantum = 10 * time.Microsecond

// Config selects the strategy per run.
type Config struct {
	Mode Mode
	// Quantum is the progress thread's wake interval (Thread mode
	// only; 0 = DefaultQuantum).
	Quantum time.Duration
}

// Hooks connect the engine to the owning rank's transport.
type Hooks struct {
	// Poll performs one progress sweep driven by proc (the progress
	// thread's vtime goroutine) and reports whether anything advanced.
	Poll func(p *vtime.Proc) bool
	// Wake unblocks the application thread if it is parked waiting on
	// a completion the sweep may have delivered.
	Wake func()
}

// Engine drives pending schedules for one rank.
type Engine struct {
	cfg  Config
	h    Hooks
	sim  *vtime.Sim
	proc *vtime.Proc // progress thread (Thread mode only)
	work int         // outstanding nonblocking operations
	stop bool
}

// New builds an engine; call Start once the owning rank is running.
func New(sim *vtime.Sim, cfg Config, h Hooks) *Engine {
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	return &Engine{cfg: cfg, h: h, sim: sim}
}

// PollOnCall reports whether library call boundaries should poll
// (Piggyback mode).
func (e *Engine) PollOnCall() bool { return e.cfg.Mode == Piggyback }

// Start spawns the progress thread if the mode calls for one. Must run
// from simulation context (the owning rank's goroutine).
func (e *Engine) Start(name string) {
	if e.cfg.Mode != Thread {
		return
	}
	e.proc = e.sim.Spawn(name, e.run)
}

// run is the progress thread: park while idle, and while work is
// pending poll once per quantum of virtual time. The quantum timer
// is a cancellable wake-up so an early wake (new work arriving) does
// not leave a stale timer extending the simulation.
func (e *Engine) run(p *vtime.Proc) {
	for {
		if e.stop {
			return
		}
		if e.work == 0 {
			p.Park("progress.idle")
			continue
		}
		if e.h.Poll(p) {
			e.h.Wake()
		}
		if e.stop {
			return
		}
		timer := p.UnparkAfter(e.cfg.Quantum)
		p.Park("progress.quantum")
		timer.Stop()
	}
}

// OpStarted tells the engine a nonblocking operation is pending; in
// Thread mode this wakes the thread out of its idle park.
func (e *Engine) OpStarted() {
	e.work++
	if e.proc != nil {
		e.proc.Unpark()
	}
}

// OpDone retires one pending operation.
func (e *Engine) OpDone() {
	if e.work > 0 {
		e.work--
	}
}

// Stop shuts the progress thread down so the simulation can drain; the
// owning rank calls it from finalization, after all pending operations
// have completed. Idempotent.
func (e *Engine) Stop() {
	if e.stop {
		return
	}
	e.stop = true
	if e.proc != nil {
		e.proc.Unpark()
	}
}
