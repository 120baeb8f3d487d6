package vtime

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestComputeAdvancesTime(t *testing.T) {
	s := NewSim()
	var at Time
	s.Spawn("p", func(p *Proc) {
		p.Compute(10 * time.Millisecond)
		p.Compute(5 * time.Millisecond)
		at = p.Now()
	})
	end := s.Run()
	if want := Time(15 * time.Millisecond); at != want || end != want {
		t.Fatalf("got proc time %v, end %v, want %v", at, end, want)
	}
}

func TestAfterOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.After(2*time.Millisecond, func() { order = append(order, 2) })
	s.After(1*time.Millisecond, func() { order = append(order, 1) })
	s.After(1*time.Millisecond, func() { order = append(order, 11) }) // same time, later seq
	s.After(3*time.Millisecond, func() { order = append(order, 3) })
	s.Run()
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	s := NewSim()
	var wake Time
	p := s.Spawn("sleeper", func(p *Proc) {
		p.Park("test")
		wake = p.Now()
	})
	s.After(7*time.Millisecond, func() { p.Unpark() })
	s.Run()
	if want := Time(7 * time.Millisecond); wake != want {
		t.Fatalf("woke at %v, want %v", wake, want)
	}
}

func TestUnparkPermitBeforePark(t *testing.T) {
	s := NewSim()
	done := false
	var p *Proc
	p = s.Spawn("p", func(pp *Proc) {
		pp.Compute(time.Millisecond) // let the permit land first
		pp.Park("test")              // must consume the pending permit
		done = true
	})
	s.After(0, func() { p.Unpark() })
	s.Run()
	if !done {
		t.Fatal("proc never resumed from Park despite pending permit")
	}
}

func TestDoubleUnparkSinglePermit(t *testing.T) {
	s := NewSim()
	rounds := 0
	p := s.Spawn("p", func(pp *Proc) {
		pp.Park("one")
		rounds++
		pp.Park("two") // needs a second Unpark
		rounds++
	})
	s.After(time.Millisecond, func() {
		p.Unpark()
		p.Unpark() // collapses into the same permit while parked
	})
	s.After(2*time.Millisecond, func() { p.Unpark() })
	s.Run()
	if rounds != 2 {
		t.Fatalf("rounds = %d, want 2", rounds)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		err, ok := r.(*DeadlockError)
		if !ok {
			t.Fatalf("panic value is %T, want *DeadlockError", r)
		}
		if !strings.Contains(err.Error(), "stuck") {
			t.Fatalf("deadlock report should name the blocked proc; got %v", err)
		}
	}()
	s := NewSim()
	s.Spawn("stuck", func(p *Proc) { p.Park("forever") })
	s.Run()
}

func TestRunEReturnsDeadlockError(t *testing.T) {
	s := NewSim()
	s.Spawn("stuck", func(p *Proc) {
		p.Compute(3 * time.Millisecond)
		p.Park("wait-for-msg")
	})
	_, err := s.RunE()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v (%T), want *DeadlockError", err, err)
	}
	if len(dl.Procs) != 1 {
		t.Fatalf("dump has %d procs, want 1", len(dl.Procs))
	}
	d := dl.Procs[0]
	if d.Name != "stuck" || d.State != "parked" || d.Where != "wait-for-msg" {
		t.Fatalf("bad proc dump: %+v", d)
	}
	if d.Since != Time(3*time.Millisecond) {
		t.Fatalf("blocked since %v, want 3ms", d.Since)
	}
}

func TestRunERecoversProcError(t *testing.T) {
	sentinel := errors.New("sentinel failure")
	s := NewSim()
	s.Spawn("bomb", func(p *Proc) { panic(sentinel) })
	_, err := s.RunE()
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	s := NewSim()
	p := s.Spawn("waiter", func(p *Proc) { p.Park("never") })
	// A self-rescheduling timer keeps the event heap busy forever;
	// only the deadline can stop the run.
	var tick func()
	tick = func() {
		s.After(time.Millisecond, tick)
		_ = p
	}
	s.After(time.Millisecond, tick)
	s.SetDeadline(Time(10 * time.Millisecond))
	end, err := s.RunE()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !strings.Contains(dl.Reason, "deadline") {
		t.Fatalf("reason = %q, want deadline expiry", dl.Reason)
	}
	if end != Time(10*time.Millisecond) {
		t.Fatalf("end = %v, want 10ms", end)
	}
}

func TestAfterCancelSkipsWithoutAdvancingClock(t *testing.T) {
	s := NewSim()
	fired := false
	timer := s.AfterCancel(50*time.Millisecond, Func(func() { fired = true }))
	s.After(time.Millisecond, func() { timer.Stop() })
	end := s.Run()
	if fired {
		t.Fatal("cancelled event still fired")
	}
	if want := Time(time.Millisecond); end != want {
		t.Fatalf("end = %v, want %v (cancelled timer advanced the clock)", end, want)
	}
}

func TestTimerStopAfterFireIsNoOp(t *testing.T) {
	s := NewSim()
	fired := 0
	timer := s.AfterCancel(time.Millisecond, Func(func() { fired++ }))
	s.After(2*time.Millisecond, func() {
		if timer.Stop() {
			t.Error("Stop after the event fired reported a cancellation")
		}
	})
	if end := s.Run(); end != Time(2*time.Millisecond) || fired != 1 {
		t.Fatalf("end = %v, fired = %d; want 2ms, 1", end, fired)
	}
	if (Timer{}).Stop() {
		t.Error("the zero Timer stopped something")
	}
}

// A fired event's slot goes back on the free list, and the next event
// scheduled takes it: the old Timer names that slot with its own seq,
// so stopping it leaves the new tenant alone.
func TestTimerStopSparesReusedSlot(t *testing.T) {
	s := NewSim()
	var first, second Timer
	secondFired := false
	first = s.AfterCancel(time.Millisecond, Func(func() {
		second = s.AfterCancel(time.Millisecond, Func(func() { secondFired = true }))
		if second.slot != first.slot {
			t.Errorf("second event took slot %d, want the vacated slot %d", second.slot, first.slot)
		}
		if first.Stop() {
			t.Error("Stop of a fired event cancelled its slot's new tenant")
		}
	}))
	if end := s.Run(); end != Time(2*time.Millisecond) || !secondFired {
		t.Fatalf("end = %v, second fired = %v; want 2ms, true", end, secondFired)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected proc panic to propagate out of Run")
		}
	}()
	s := NewSim()
	s.Spawn("bomb", func(p *Proc) { panic("boom") })
	s.Run()
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := NewSim()
		var log []string
		for _, name := range []string{"a", "b"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Compute(time.Millisecond)
					log = append(log, name)
				}
			})
		}
		s.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("non-deterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestSpawnDuringRun(t *testing.T) {
	s := NewSim()
	var childTime Time
	s.Spawn("parent", func(p *Proc) {
		p.Compute(4 * time.Millisecond)
		s.Spawn("child", func(c *Proc) {
			c.Compute(time.Millisecond)
			childTime = c.Now()
		})
	})
	s.Run()
	if want := Time(5 * time.Millisecond); childTime != want {
		t.Fatalf("child finished at %v, want %v", childTime, want)
	}
}

func TestYieldRunsQueuedEventsFirst(t *testing.T) {
	s := NewSim()
	var order []string
	s.Spawn("p", func(p *Proc) {
		s.After(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	s.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v, want [event proc]", order)
	}
}

func TestNegativeComputePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative duration")
		}
	}()
	s := NewSim()
	s.Spawn("p", func(p *Proc) { p.Compute(-time.Second) })
	s.Run()
}
