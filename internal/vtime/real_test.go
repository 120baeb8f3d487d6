package vtime

import (
	"errors"
	"testing"
	"time"

	"ovlp/internal/clock"
)

func TestRealSimComputesOverlapInWallTime(t *testing.T) {
	s := NewRealSim(nil)
	const d = 20 * time.Millisecond
	for i := 0; i < 4; i++ {
		s.Spawn("worker", func(p *Proc) { p.Compute(d) })
	}
	start := time.Now()
	end, err := s.RunE()
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if wall >= 4*d {
		t.Fatalf("4 procs computing %v took %v wall — not concurrent", d, wall)
	}
	if end.Duration() < d {
		t.Fatalf("run ended at %v, before a single compute of %v", end, d)
	}
	if s.ClockDomain() != clock.RealDomain {
		t.Fatalf("domain = %q, want real", s.ClockDomain())
	}
}

func TestRealSimParkUnpark(t *testing.T) {
	s := NewRealSim(nil)
	var order []string
	var consumer *Proc
	consumer = s.Spawn("consumer", func(p *Proc) {
		p.Park("test.wait")
		order = append(order, "woken")
	})
	s.Spawn("producer", func(p *Proc) {
		p.Compute(2 * time.Millisecond)
		order = append(order, "produce")
		consumer.Unpark()
	})
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "produce" || order[1] != "woken" {
		t.Fatalf("order = %v, want [produce woken]", order)
	}
}

func TestRealSimPermitBeforePark(t *testing.T) {
	s := NewRealSim(nil)
	done := false
	var late *Proc
	late = s.Spawn("late", func(p *Proc) {
		p.Compute(5 * time.Millisecond) // let the permit arrive first
		p.Park("test.late")             // must consume the pending permit
		done = true
	})
	s.Spawn("early", func(p *Proc) { late.Unpark() })
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("pending permit was not consumed by Park")
	}
}

func TestRealSimAfterAndCancel(t *testing.T) {
	s := NewRealSim(nil)
	var fired, cancelledFired int
	s.Spawn("arm", func(p *Proc) {
		s.After(time.Millisecond, func() { fired++ })
		timer := s.AfterCancel(time.Millisecond, Func(func() { cancelledFired++ }))
		timer.Stop()
		p.Compute(10 * time.Millisecond)
	})
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("After fired %d times, want 1", fired)
	}
	if cancelledFired != 0 {
		t.Fatal("cancelled timer fired")
	}
}

// A deadline on the wall clock is waited out and diagnosed exactly as
// on the virtual one: the dump names the parked proc, the stamp is the
// deadline, and the proc is left suspended — nothing unwinds it.
func TestRealSimDeadlineLeavesProcsSuspended(t *testing.T) {
	const deadline = 10 * time.Millisecond
	start := time.Now() // the deadline counts from the epoch NewRealSim reads
	s := NewRealSim(nil)
	s.SetDeadline(Time(deadline))
	unwound := false
	var stuck *Proc
	stuck = s.Spawn("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		for {
			s.After(4*time.Millisecond, stuck.Unpark) // events never run out: only the deadline ends this
			p.Park("test.never")
		}
	})
	end, err := s.RunE()
	if wall := time.Since(start); wall < deadline {
		t.Fatalf("RunE returned after %v, before the %v deadline", wall, deadline)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 || de.Procs[0].Where != "test.never" || de.Procs[0].State != "parked" {
		t.Fatalf("dump = %+v, want the parked proc at test.never", de.Procs)
	}
	if de.Now < Time(deadline) || end != de.Now {
		t.Fatalf("diagnosed at %v (RunE returned %v), want the %v deadline or just after", de.Now, end, deadline)
	}
	if unwound {
		t.Fatal("the deadline unwound the parked proc")
	}
}

// With every wake-up on the heap, a wedged run is visible on the wall
// clock the moment it wedges: no watchdog has to expire first.
func TestRealSimDeadlockIsImmediate(t *testing.T) {
	diagnose := func(s *Sim) *DeadlockError {
		s.Spawn("a", func(p *Proc) {
			p.Compute(time.Millisecond)
			p.Park("test.a")
		})
		s.Spawn("b", func(p *Proc) { p.Park("test.b") })
		_, err := s.RunE()
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want DeadlockError", err)
		}
		return de
	}
	start := time.Now()
	real := diagnose(NewRealSim(nil))
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("a wedged real run took %v to say so", wall)
	}
	virt := diagnose(NewSim())
	if real.Reason != virt.Reason || len(real.Procs) != len(virt.Procs) {
		t.Fatalf("real diagnosis %v\nvirtual diagnosis %v", real, virt)
	}
	for i, p := range real.Procs {
		if v := virt.Procs[i]; p.ID != v.ID || p.Name != v.Name || p.State != v.State || p.Where != v.Where {
			t.Fatalf("proc %d: real dump %+v, virtual dump %+v", i, p, v)
		}
	}
}

func TestRealSimProcPanicSurfaces(t *testing.T) {
	s := NewRealSim(nil)
	boom := errors.New("boom")
	s.Spawn("bad", func(p *Proc) {
		p.Compute(time.Millisecond)
		panic(boom)
	})
	s.Spawn("good", func(p *Proc) { p.Compute(2 * time.Millisecond) })
	_, err := s.RunE()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRealSimKill(t *testing.T) {
	s := NewRealSim(nil)
	die := errors.New("die")
	var got error
	var victim *Proc
	victim = s.Spawn("victim", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				got = r.(error)
			}
		}()
		p.Park("test.victim")
	})
	s.Spawn("killer", func(p *Proc) {
		p.Compute(2 * time.Millisecond)
		victim.Kill(die)
	})
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, die) {
		t.Fatalf("victim recovered %v, want die", got)
	}
}

// kernelLog counts observer callbacks.
type kernelLog struct {
	blocked, resumed, done, unparked int
}

func (l *kernelLog) ProcBlocked(p *Proc, state, where string) { l.blocked++ }
func (l *kernelLog) ProcResumed(p *Proc)                      { l.resumed++ }
func (l *kernelLog) ProcDone(p *Proc)                         { l.done++ }
func (l *kernelLog) Deadlock(e *DeadlockError)                {}
func (l *kernelLog) ProcUnparked(p *Proc, by *Proc)           { l.unparked++ }

func TestRealSimObserverCallbacks(t *testing.T) {
	s := NewRealSim(nil)
	log := &kernelLog{}
	s.SetObserver(log)
	sleeper := s.Spawn("sleeper", func(p *Proc) {
		p.Compute(time.Millisecond)
		p.Park("test.sleep")
	})
	// The worker's timer is scheduled after the sleeper's and for later,
	// so on one heap the Park always precedes the Unpark: nothing here
	// depends on how fast the host is.
	s.Spawn("worker", func(p *Proc) {
		p.Compute(2 * time.Millisecond)
		sleeper.Unpark()
	})
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if log.done != 2 {
		t.Fatalf("done = %d, want 2", log.done)
	}
	if log.blocked != 3 { // 2 computes + 1 park
		t.Fatalf("blocked = %d, want 3", log.blocked)
	}
	if log.unparked != 1 {
		t.Fatalf("unparked = %d, want 1", log.unparked)
	}
	// resumed: 2 initial dispatches + 3 block resumes
	if log.resumed != 5 {
		t.Fatalf("resumed = %d, want 5", log.resumed)
	}
}

func TestRealSimMidRunSpawn(t *testing.T) {
	s := NewRealSim(nil)
	childRan := false
	s.Spawn("parent", func(p *Proc) {
		p.Compute(time.Millisecond)
		s.Spawn("child", func(c *Proc) {
			c.Compute(time.Millisecond)
			childRan = true
		})
		p.Compute(time.Millisecond)
	})
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("mid-run spawned proc never ran")
	}
}

// tickingClock moves exactly when slept on, like clock.Stepped, and
// also by 700 ns on every reading: host time passing while procs run.
type tickingClock struct{ now time.Duration }

func (c *tickingClock) Now() time.Time {
	c.now += 700 * time.Nanosecond
	return time.Unix(0, 0).Add(c.now)
}
func (c *tickingClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
func (c *tickingClock) Domain() clock.Domain            { return clock.RealDomain }
func (c *tickingClock) Sleep(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// TestRealSimNowStandsStillBetweenBlockingPoints: a proc sees one
// instant from one blocking point to the next however often it asks,
// and the host time that passed shows at its next dispatch.
func TestRealSimNowStandsStillBetweenBlockingPoints(t *testing.T) {
	s := NewRealSim(&tickingClock{})
	const d = 10 * time.Microsecond
	s.Spawn("worker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			t0 := p.Now()
			for j := 0; j < 5; j++ {
				if now := p.Now(); now != t0 {
					t.Errorf("step %d: Now moved from %v to %v without blocking", i, t0, now)
				}
			}
			p.Compute(d)
			if now := p.Now(); now <= t0.Add(d) {
				t.Errorf("step %d: after Compute(%v) from %v, Now = %v; want the clock's overshoot too", i, d, t0, now)
			}
		}
	})
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
}
