package vtime

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Compute returns without touching the event heap when nothing queued
// can fire at or before its own timer. These tests pin that the rule is
// invisible: every log below is what the kernel produced when each
// Compute pushed a timer and popped it again (they were checked against
// that kernel before the rule existed), and the cases sit on the rule's
// edges — a same-instant event, a cancelled event, a pending Kill, the
// deadline, Compute(0), a Spawn between two lone Computes.

const us = time.Microsecond

// logObs records every kernel callback with the virtual time it fired at.
type logObs struct {
	s     *Sim
	lines []string
}

func (l *logObs) logf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...)+fmt.Sprintf(" @%v", l.s.Now()))
}

func (l *logObs) ProcBlocked(p *Proc, state, where string) {
	l.logf("blocked %s %s %s", p.Name(), state, where)
}
func (l *logObs) ProcResumed(p *Proc)       { l.logf("resumed %s", p.Name()) }
func (l *logObs) ProcDone(p *Proc)          { l.logf("done %s", p.Name()) }
func (l *logObs) Deadlock(e *DeadlockError) { l.logf("deadlock %s", e.Reason) }
func (l *logObs) ProcUnparked(p, by *Proc)  { l.logf("unparked %s", p.Name()) }

func observed() (*Sim, *logObs) {
	s := NewSim()
	l := &logObs{s: s}
	s.SetObserver(l)
	return s, l
}

func (l *logObs) check(t *testing.T, want ...string) {
	t.Helper()
	if got := strings.Join(l.lines, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("kernel log:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// A lone proc: every Compute qualifies.
func TestLookaheadSingleProc(t *testing.T) {
	s, l := observed()
	s.Spawn("a", func(p *Proc) {
		p.Compute(2 * us)
		p.Compute(3 * us)
	})
	if end := s.Run(); end != Time(5*us) {
		t.Errorf("end = %v, want 5µs", end)
	}
	l.check(t,
		"resumed a @0s",
		"blocked a computing Compute @0s",
		"resumed a @2µs",
		"blocked a computing Compute @2µs",
		"resumed a @5µs",
		"done a @5µs",
	)
}

// Two procs whose timers interleave: while both run, each Compute has
// the other's timer (or start) queued at or before its own, so none
// qualifies until a has finished.
func TestLookaheadInterleavedTimers(t *testing.T) {
	s, l := observed()
	s.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Compute(2 * us)
		}
	})
	s.Spawn("b", func(p *Proc) {
		p.Compute(3 * us)
		p.Compute(2 * us)
		p.Compute(2 * us)
	})
	if end := s.Run(); end != Time(7*us) {
		t.Errorf("end = %v, want 7µs", end)
	}
	l.check(t,
		"resumed a @0s",
		"blocked a computing Compute @0s",
		"resumed b @0s",
		"blocked b computing Compute @0s",
		"resumed a @2µs",
		"blocked a computing Compute @2µs",
		"resumed b @3µs",
		"blocked b computing Compute @3µs",
		"resumed a @4µs",
		"blocked a computing Compute @4µs",
		"resumed b @5µs",
		"blocked b computing Compute @5µs",
		"resumed a @6µs",
		"done a @6µs",
		"resumed b @7µs",
		"done b @7µs",
	)
}

// An event queued at exactly now+d was scheduled before the timer, so
// it fires first; the comparison against the heap's head is strict.
func TestLookaheadSameInstantEventFiresFirst(t *testing.T) {
	s, l := observed()
	s.Spawn("a", func(p *Proc) {
		s.After(5*us, func() { l.logf("callback") })
		p.Compute(5 * us)
		l.logf("computed")
	})
	s.Run()
	l.check(t,
		"resumed a @0s",
		"blocked a computing Compute @0s",
		"callback @5µs",
		"resumed a @5µs",
		"computed @5µs",
		"done a @5µs",
	)
}

// A cancelled event is dropped without its instant ever becoming the
// clock — ahead of the timer, where the Compute still goes through the
// heap, and beyond it, where it is left queued and the run still ends
// at the proc's own time.
func TestLookaheadCancelledEventDropped(t *testing.T) {
	for _, at := range []time.Duration{3 * us, 9 * us} {
		s, l := observed()
		ran := false
		s.Spawn("a", func(p *Proc) {
			timer := s.AfterCancel(at, Func(func() { ran = true }))
			s.After(us, func() { l.logf("callback") }) // so the clock is observed between
			timer.Stop()
			p.Compute(5 * us)
		})
		if end := s.Run(); end != Time(5*us) || ran {
			t.Errorf("cancelled event at %v: end = %v (want 5µs), ran = %v", at, end, ran)
		}
		l.check(t,
			"resumed a @0s",
			"blocked a computing Compute @0s",
			"callback @1µs",
			"resumed a @5µs",
			"done a @5µs",
		)
	}
}

// Kill on a running proc is delivered by its next Compute — after the
// clock moved, exactly once — whether or not that Compute qualifies.
func TestLookaheadKillRunningProc(t *testing.T) {
	crash := errors.New("crash")
	for _, lone := range []bool{true, false} {
		s, l := observed()
		var recovered []any
		s.Spawn("a", func(p *Proc) {
			defer func() {
				recovered = append(recovered, recover())
				p.Compute(us) // cleanup blocks again without re-triggering
				l.logf("cleaned up")
			}()
			if !lone {
				s.After(us, func() { l.logf("callback") })
			}
			p.Kill(crash)
			p.Compute(2 * us)
			t.Error("Compute returned with a Kill pending")
		})
		if end, err := s.RunE(); err != nil || end != Time(3*us) {
			t.Errorf("lone=%v: RunE = %v, %v; want 3µs, nil", lone, end, err)
		}
		if len(recovered) != 1 || recovered[0] != crash {
			t.Errorf("lone=%v: recovered %v, want the Kill error once", lone, recovered)
		}
		want := []string{
			"resumed a @0s",
			"blocked a computing Compute @0s",
			"callback @1µs",
			"resumed a @2µs",
			"blocked a computing Compute @2µs",
			"resumed a @3µs",
			"cleaned up @3µs",
			"done a @3µs",
		}
		if lone {
			want = append(want[:2], want[3:]...)
		}
		l.check(t, want...)
	}
}

// The deadline belongs to the instant it names: a Compute ending at it
// is diagnosed (and dumped as computing since it blocked), one ending a
// nanosecond earlier returns.
func TestLookaheadDeadline(t *testing.T) {
	s, l := observed()
	s.SetDeadline(Time(5 * us))
	s.Spawn("a", func(p *Proc) {
		p.Compute(2 * us)
		p.Compute(3 * us)
		t.Error("Compute returned at the deadline")
	})
	end, err := s.RunE()
	de, ok := err.(*DeadlockError)
	if !ok || end != Time(5*us) || len(de.Procs) != 1 {
		t.Fatalf("RunE = %v, %v; want a one-proc DeadlockError at 5µs", end, err)
	}
	if d := de.Procs[0]; d.State != "computing" || d.Where != "Compute" || d.Since != Time(2*us) {
		t.Errorf("dump = %+v, want computing in Compute since 2µs", d)
	}
	l.check(t,
		"resumed a @0s",
		"blocked a computing Compute @0s",
		"resumed a @2µs",
		"blocked a computing Compute @2µs",
		"deadlock deadline 5µs expired @5µs",
	)

	s, l = observed()
	s.SetDeadline(Time(5*us) + 1)
	s.Spawn("a", func(p *Proc) {
		p.Compute(2 * us)
		p.Compute(3 * us)
	})
	if end, err := s.RunE(); err != nil || end != Time(5*us) {
		t.Fatalf("deadline just past the timer: RunE = %v, %v; want 5µs, nil", end, err)
	}
	l.check(t,
		"resumed a @0s",
		"blocked a computing Compute @0s",
		"resumed a @2µs",
		"blocked a computing Compute @2µs",
		"resumed a @5µs",
		"done a @5µs",
	)
}

// Compute(0) is Yield: a no-op on an empty heap, and behind anything
// already queued for this instant.
func TestLookaheadComputeZero(t *testing.T) {
	s, l := observed()
	s.Spawn("a", func(p *Proc) {
		p.Compute(0)
		l.logf("yielded to nothing")
		s.After(0, func() { l.logf("callback") })
		p.Compute(0)
		l.logf("yielded to the callback")
	})
	s.Run()
	l.check(t,
		"resumed a @0s",
		"blocked a computing Compute @0s",
		"resumed a @0s",
		"yielded to nothing @0s",
		"blocked a computing Compute @0s",
		"callback @0s",
		"resumed a @0s",
		"yielded to the callback @0s",
		"done a @0s",
	)
}

// A Spawn between two lone Computes queues the child's start at the
// current instant, so the second Compute lets the child run first.
func TestLookaheadSpawnBetweenComputes(t *testing.T) {
	s, l := observed()
	s.Spawn("a", func(p *Proc) {
		p.Compute(us)
		s.Spawn("child", func(c *Proc) { c.Compute(3 * us) })
		p.Compute(us)
		p.Compute(us)
	})
	s.Run()
	l.check(t,
		"resumed a @0s",
		"blocked a computing Compute @0s",
		"resumed a @1µs",
		"blocked a computing Compute @1µs",
		"resumed child @1µs",
		"blocked child computing Compute @1µs",
		"resumed a @2µs",
		"blocked a computing Compute @2µs",
		"resumed a @3µs",
		"done a @3µs",
		"resumed child @4µs",
		"done child @4µs",
	)
}

// A million lone Computes allocate nothing and leave the heap and the
// event slab as they found them.
func TestLookaheadLoneComputeAllocs(t *testing.T) {
	const n = 1_000_000
	s := NewSim()
	var mallocs uint64
	var events, slab int
	s.Spawn("a", func(p *Proc) {
		p.Compute(us) // warm: whatever the first Compute sets up is not the loop's
		var before, after runtime.MemStats
		events, slab = cap(s.events), cap(s.slab)
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			p.Compute(us)
		}
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	if end := s.Run(); end != Time((n+1)*us) {
		t.Errorf("end = %v, want %v", end, Time((n+1)*us))
	}
	if mallocs != 0 {
		t.Errorf("%d allocations over %d lone Computes, want 0", mallocs, n)
	}
	if cap(s.events) != events || cap(s.slab) != slab || len(s.events) != 0 {
		t.Errorf("heap cap %d→%d (len %d), slab cap %d→%d: lone Computes must not grow them",
			events, cap(s.events), len(s.events), slab, cap(s.slab))
	}
}
