package vtime

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// These tests pin what must hold now that a proc is a coroutine RunE
// switches into: anything that used to cross a channel hand-off — a
// panic, a Kill, a Spawn, the end of the run — now crosses a
// next()/yield boundary instead.

type nodeError struct{ node int }

func (e *nodeError) Error() string { return fmt.Sprintf("node %d failed", e.node) }

// lockStep spawns n procs that take turns: every Compute ends with
// another proc due first, so each blocking call is a switch through
// RunE, never a self-wake.
func lockStep(s *Sim, n, steps int, at func(p *Proc, step int)) []*Proc {
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < steps; step++ {
				p.Compute(time.Millisecond)
				if at != nil {
					at(p, step)
				}
			}
		})
	}
	return procs
}

// A proc's panic is caught on its own coroutine and handed to RunE as
// an error wrapping the original value; it must not unwind out of
// next() into RunE's frames, and the other procs must simply stay
// where they were.
func TestProcPanicAcrossSwitch(t *testing.T) {
	base := runtime.NumGoroutine()
	sentinel := &nodeError{node: 2}
	s := NewSim()
	lockStep(s, 4, 5, func(p *Proc, step int) {
		if p.ID() == 2 && step == 2 {
			panic(fmt.Errorf("rank aborted: %w", sentinel))
		}
	})
	end, err := s.RunE()
	if err == nil || !strings.HasPrefix(err.Error(), `proc "p2" panicked: rank aborted: node 2 failed`) {
		t.Fatalf("err = %v, want p2's wrapped panic", err)
	}
	var ne *nodeError
	if !errors.Is(err, sentinel) || !errors.As(err, &ne) || ne != sentinel {
		t.Fatalf("errors.Is/As lost the original value in %v", err)
	}
	if end != Time(3*time.Millisecond) {
		t.Fatalf("end = %v, want 3ms", end)
	}
	if n := runtime.NumGoroutine(); n != base+3 {
		t.Fatalf("%d goroutines after the panic, want %d: the three survivors suspended, p2 gone", n, base+3)
	}
}

// A callback that panics while some proc deep into the run is firing
// events surfaces as itself — not blamed on that proc, not seen by its
// recover — whichever coroutine happened to hold the baton.
func TestCallbackPanicAcrossSwitch(t *testing.T) {
	sentinel := errors.New("callback failure")
	s := NewSim()
	var swallowed []any
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer func() {
				if r := recover(); r != nil {
					swallowed = append(swallowed, r)
				}
			}()
			for step := 0; step < 5; step++ {
				p.Compute(time.Millisecond)
			}
		})
	}
	// Half a step after the third round of hand-offs: fired by the last
	// proc to block at 3ms, on its coroutine.
	s.After(3500*time.Microsecond, func() { panic(sentinel) })
	end, err := s.RunE()
	if err != sentinel {
		t.Fatalf("err = %v, want the callback's own panic value", err)
	}
	if len(swallowed) != 0 {
		t.Fatalf("callback panic unwound through a proc: recovered %v", swallowed)
	}
	if end != Time(3500*time.Microsecond) {
		t.Fatalf("end = %v, want 3.5ms", end)
	}
}

// Kill reaches a proc that is suspended in yield — blocked while other
// procs run — as a panic out of its blocking call at the kill instant,
// exactly once, whether it was parked or computing.
func TestKillSuspendedProc(t *testing.T) {
	crash := &nodeError{node: 1}
	for _, tc := range []struct {
		name  string
		block func(p *Proc)
	}{
		{"parked", func(p *Proc) { p.Park("recv") }},
		{"computing", func(p *Proc) { p.Compute(time.Second) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim()
			obs := &countObs{}
			s.SetObserver(obs)
			var got any
			var at, cleaned Time
			victim := s.Spawn("victim", func(p *Proc) {
				defer func() {
					got, at = recover(), p.Now()
					p.Compute(time.Millisecond) // cleanup blocks again without re-triggering
					cleaned = p.Now()
				}()
				tc.block(p)
				t.Error("blocking call returned normally after Kill")
			})
			s.Spawn("killer", func(p *Proc) {
				p.Compute(3 * time.Millisecond)
				victim.Kill(crash)
				victim.Kill(errors.New("second kill is a no-op"))
				p.Compute(5 * time.Millisecond)
			})
			end, err := s.RunE()
			if err != nil {
				t.Fatal(err)
			}
			if got != crash || at != Time(3*time.Millisecond) {
				t.Fatalf("recovered %v at %v, want %v at 3ms", got, at, crash)
			}
			if cleaned != Time(4*time.Millisecond) {
				t.Fatalf("cleanup finished at %v, want 4ms", cleaned)
			}
			if end != Time(8*time.Millisecond) {
				t.Fatalf("end = %v, want 8ms (a cancelled wake-up advanced the clock)", end)
			}
			// victim: start, kill, cleanup Compute. killer: start, two Computes.
			if obs.resumed != 6 {
				t.Fatalf("%d resumes, want 6", obs.resumed)
			}
		})
	}
}

// Spawn creates the coroutine when the new proc's start event fires,
// on whichever coroutine is firing events then: RunE's own goroutine
// before the first dispatch, a proc's afterwards — from proc context
// and from a callback alike.
func TestSpawnFromProcAndCallback(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSim()
	var log []string
	note := func(what string, p *Proc) {
		log = append(log, fmt.Sprintf("%s %s@%v", what, p.Name(), p.Now()))
	}
	body := func(p *Proc) {
		note("start", p)
		p.Compute(time.Millisecond)
		note("end", p)
	}
	s.After(0, func() { s.Spawn("cb-early", body) }) // fired by RunE itself
	s.Spawn("parent", func(p *Proc) {
		note("start", p)
		p.Compute(2 * time.Millisecond)
		s.Spawn("child", func(c *Proc) {
			body(c)
			s.Spawn("grandchild", body)
		})
		s.After(500*time.Microsecond, func() { s.Spawn("cb-late", body) }) // fired by a proc
		p.Compute(2 * time.Millisecond)
		note("end", p)
	})
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"start parent@0s",
		"start cb-early@0s",
		"end cb-early@1ms",
		"start child@2ms",
		"start cb-late@2.5ms",
		"end child@3ms",
		"start grandchild@3ms",
		"end cb-late@3.5ms",
		"end parent@4ms",
		"end grandchild@4ms",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("schedule:\n got %q\nwant %q", log, want)
	}
	for i, p := range s.procs {
		if p.ID() != i || p.state != stateDone {
			t.Errorf("proc %d %q: id %d, state %v", i, p.name, p.ID(), p.state)
		}
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after RunE, %d before", n, base)
	}
}

// When the run wedges, RunE's loop simply ends: the finished procs'
// coroutines are gone, exactly the blocked ones stay suspended in
// yield, and the DeadlockError lists them as it always has.
func TestBlockedProcsStaySuspended(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline Time
		reason   string
		end      Time
		dump     []ProcDump
	}{
		{"deadlock", 0, "no pending events", Time(4 * time.Millisecond), []ProcDump{
			{ID: 1, Name: "p1", State: "parked", Where: "never", Since: Time(2 * time.Millisecond)},
			{ID: 3, Name: "p3", State: "parked", Where: "never", Since: Time(2 * time.Millisecond)},
		}},
		{"deadline", Time(3500 * time.Microsecond), "deadline 3.5ms expired", Time(3500 * time.Microsecond), []ProcDump{
			{ID: 0, Name: "p0", State: "computing", Where: "Compute", Since: Time(3 * time.Millisecond)},
			{ID: 1, Name: "p1", State: "parked", Where: "never", Since: Time(2 * time.Millisecond)},
			{ID: 2, Name: "p2", State: "computing", Where: "Compute", Since: Time(3 * time.Millisecond)},
			{ID: 3, Name: "p3", State: "parked", Where: "never", Since: Time(2 * time.Millisecond)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := NewSim()
			obs := &countObs{}
			s.SetObserver(obs)
			lockStep(s, 4, 4, func(p *Proc, step int) {
				if p.ID()%2 == 1 && step == 1 {
					p.Park("never")
				}
			})
			s.SetDeadline(tc.deadline)
			end, err := s.RunE()
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v (%T), want *DeadlockError", err, err)
			}
			if dl.Reason != tc.reason || end != tc.end || dl.Now != end {
				t.Fatalf("reason %q at %v (dump at %v), want %q at %v", dl.Reason, end, dl.Now, tc.reason, tc.end)
			}
			if !reflect.DeepEqual(dl.Procs, tc.dump) {
				t.Fatalf("dump:\n got %+v\nwant %+v", dl.Procs, tc.dump)
			}
			if obs.deadlocks != 1 {
				t.Fatalf("Observer.Deadlock fired %d times, want 1", obs.deadlocks)
			}
			if n := runtime.NumGoroutine(); n != base+len(tc.dump) {
				t.Fatalf("%d goroutines after RunE, want %d: one suspended coroutine per blocked proc", n, base+len(tc.dump))
			}
		})
	}
}
