package vtime

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// These tests pin what must hold now that events fire on whichever
// proc goroutine holds the baton rather than on a scheduler goroutine.

// countObs counts kernel callbacks.
type countObs struct{ resumed, deadlocks int }

func (o *countObs) ProcBlocked(*Proc, string, string) {}
func (o *countObs) ProcResumed(*Proc)                 { o.resumed++ }
func (o *countObs) ProcDone(*Proc)                    {}
func (o *countObs) Deadlock(*DeadlockError)           { o.deadlocks++ }

// A callback that panics while a blocked proc is firing events must
// surface from RunE as itself: not blamed on that proc, and not
// unwound through the proc's frames, where a recover (a rank's abort
// handler) would swallow it.
func TestCallbackPanicWhileProcDrivesLoop(t *testing.T) {
	sentinel := errors.New("callback failure")
	for _, tc := range []struct {
		name  string
		value any
		check func(error) bool
	}{
		{"error", sentinel, func(err error) bool { return err == sentinel }},
		{"string", "boom", func(err error) bool { return err != nil && err.Error() == "vtime: boom" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim()
			var swallowed any
			after := false
			s.Spawn("driver", func(p *Proc) {
				defer func() { swallowed = recover() }()
				p.Compute(10 * time.Millisecond) // p fires the callback below itself
				after = true
			})
			s.After(5*time.Millisecond, func() { panic(tc.value) })
			end, err := s.RunE()
			if !tc.check(err) {
				t.Fatalf("err = %v, want the callback's own panic", err)
			}
			if swallowed != nil || after {
				t.Fatalf("callback panic reached the driving proc (recovered %v, continued %v)", swallowed, after)
			}
			if end != Time(5*time.Millisecond) {
				t.Fatalf("end = %v, want 5ms", end)
			}
		})
	}
}

// The kernel's own event-context panics take the same route.
func TestSchedulingInThePastFromCallback(t *testing.T) {
	s := NewSim()
	s.Spawn("driver", func(p *Proc) {
		defer func() { recover() }()
		p.Compute(time.Millisecond)
	})
	s.After(0, func() { s.enqueue(s.now-1, evFire, nil, Func(func() {})) })
	_, err := s.RunE()
	if err == nil || !strings.HasPrefix(err.Error(), "vtime: vtime: scheduling event in the past") {
		t.Fatalf("err = %v, want the kernel's scheduling panic", err)
	}
}

// A lone computing proc is its own next event. Killing it from a
// callback it fires itself must resume it at the kill instant, and its
// cancelled timer must not stretch the run.
func TestKillSelfWakingCompute(t *testing.T) {
	crash := errors.New("node crashed")
	s := NewSim()
	var got any
	var at Time
	p := s.Spawn("victim", func(p *Proc) {
		defer func() {
			got, at = recover(), p.Now()
			p.Compute(time.Millisecond) // cleanup blocks again, on a fresh timer
		}()
		p.Compute(10 * time.Millisecond)
		t.Error("Compute returned normally after Kill")
	})
	s.After(3*time.Millisecond, func() { p.Kill(crash) })
	end, err := s.RunE()
	if err != nil {
		t.Fatal(err)
	}
	if got != crash || at != Time(3*time.Millisecond) {
		t.Fatalf("recovered %v at %v, want %v at 3ms", got, at, crash)
	}
	if end != Time(4*time.Millisecond) {
		t.Fatalf("end = %v, want 4ms (stale Compute timer advanced the clock)", end)
	}
}

// Unpark then Kill in one callback leaves a stale Unpark event ahead
// of the kill's wake-up: the proc must resume exactly once, with the
// kill, and its next Park must wait for a fresh Unpark.
func TestKillParkedWithStaleUnparkInFlight(t *testing.T) {
	crash := errors.New("node crashed")
	s := NewSim()
	obs := &countObs{}
	s.SetObserver(obs)
	var got any
	var woke Time
	p := s.Spawn("victim", func(p *Proc) {
		defer func() {
			got = recover()
			p.Park("cleanup")
			woke = p.Now()
		}()
		p.Park("recv")
		t.Error("Park returned normally after Kill")
	})
	s.After(2*time.Millisecond, func() {
		p.Unpark()
		p.Kill(crash)
	})
	s.After(6*time.Millisecond, func() { p.Unpark() })
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if got != crash {
		t.Fatalf("recovered %v, want %v", got, crash)
	}
	if woke != Time(6*time.Millisecond) {
		t.Fatalf("cleanup Park woke at %v, want 6ms (stale Unpark was honoured)", woke)
	}
	if obs.resumed != 3 { // first dispatch, the kill, the second Unpark
		t.Fatalf("proc resumed %d times, want 3", obs.resumed)
	}
}

// The deadline can fall between a lone proc blocking and its own
// wake-up: the proc, not RunE, is firing events when it expires.
func TestDeadlineExpiresOnSelfWake(t *testing.T) {
	s := NewSim()
	obs := &countObs{}
	s.SetObserver(obs)
	s.Spawn("slow", func(p *Proc) { p.Compute(10 * time.Millisecond) })
	s.SetDeadline(Time(4 * time.Millisecond))
	end, err := s.RunE()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v (%T), want *DeadlockError", err, err)
	}
	if dl.Reason != "deadline 4ms expired" || end != Time(4*time.Millisecond) || dl.Now != end {
		t.Fatalf("reason %q at %v (dump %v), want deadline expiry at 4ms", dl.Reason, end, dl.Now)
	}
	if len(dl.Procs) != 1 || dl.Procs[0].State != "computing" || dl.Procs[0].Where != "Compute" || dl.Procs[0].Since != 0 {
		t.Fatalf("bad proc dump: %+v", dl.Procs)
	}
	if obs.deadlocks != 1 {
		t.Fatalf("Observer.Deadlock fired %d times, want 1", obs.deadlocks)
	}
}

// An event hands the baton to at most one proc; a second dispatch
// would otherwise be lost silently.
func TestTwoDispatchesFromOneEventPanics(t *testing.T) {
	s := NewSim()
	a := s.Spawn("a", func(p *Proc) { p.Park("a") })
	b := s.Spawn("b", func(p *Proc) { p.Park("b") })
	s.After(time.Millisecond, func() {
		s.dispatch(a)
		s.dispatch(b)
	})
	_, err := s.RunE()
	if err == nil || !strings.Contains(err.Error(), `one event dispatched both "a" and "b"`) {
		t.Fatalf("err = %v, want the double-dispatch kernel panic", err)
	}
}
