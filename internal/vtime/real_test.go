package vtime

import (
	"errors"
	"sync/atomic"
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
	if !s.IsReal() || s.ClockDomain() != clock.RealDomain {
		t.Fatalf("IsReal=%v domain=%q", s.IsReal(), s.ClockDomain())
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
	var fired, cancelledFired atomic.Int32
	s.Spawn("arm", func(p *Proc) {
		s.After(time.Millisecond, func() { fired.Add(1) })
		cancel := s.AfterCancel(time.Millisecond, func() { cancelledFired.Add(1) })
		cancel()
		p.Compute(10 * time.Millisecond)
	})
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 {
		t.Fatalf("After fired %d times, want 1", fired.Load())
	}
	if cancelledFired.Load() != 0 {
		t.Fatal("cancelled timer fired")
	}
}

func TestRealSimDeadlineAbortsParkedProcs(t *testing.T) {
	s := NewRealSim(nil)
	s.SetDeadline(Time(10 * time.Millisecond))
	recovered := make(chan error, 1)
	s.Spawn("stuck", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				recovered <- r.(error)
				panic(r) // keep the kernel's view of an unwound proc
			}
		}()
		p.Park("test.never")
	})
	_, err := s.RunE()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 || de.Procs[0].Where != "test.never" {
		t.Fatalf("dump = %+v, want the parked proc at test.never", de.Procs)
	}
	select {
	case kerr := <-recovered:
		if !errors.Is(kerr, ErrAborted) {
			t.Fatalf("proc unwound with %v, want ErrAborted", kerr)
		}
	case <-time.After(time.Second):
		t.Fatal("parked proc was not unwound by the abort")
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

// kernelLog records observer callbacks; under the kernel lock no
// synchronization is needed, which is itself part of what the test
// checks under -race. parked is closed when a proc blocks in Park.
type kernelLog struct {
	blocked, resumed, done, unparked int
	parked                           chan struct{}
}

func (l *kernelLog) ProcBlocked(p *Proc, state, where string) {
	l.blocked++
	if state == stateParked.String() {
		close(l.parked)
	}
}
func (l *kernelLog) ProcResumed(p *Proc)            { l.resumed++ }
func (l *kernelLog) ProcDone(p *Proc)               { l.done++ }
func (l *kernelLog) Deadlock(e *DeadlockError)      {}
func (l *kernelLog) ProcUnparked(p *Proc, by *Proc) { l.unparked++ }

func TestRealSimObserverCallbacks(t *testing.T) {
	s := NewRealSim(nil)
	log := &kernelLog{parked: make(chan struct{})}
	s.SetObserver(log)
	sleeper := s.Spawn("sleeper", func(p *Proc) {
		p.Compute(time.Millisecond)
		p.Park("test.sleep")
	})
	s.Spawn("worker", func(p *Proc) {
		p.Compute(time.Millisecond)
	})
	// The wake-up waits for the sleeper's ProcBlocked(parked) callback,
	// not for a wall-clock margin: an Unpark that beats the Park on a
	// loaded machine leaves a permit, and the Park neither blocks nor is
	// unparked ("blocked = 2, want 3").
	woke := make(chan struct{})
	go func() {
		defer close(woke)
		<-log.parked
		s.Enter(sleeper.Unpark)
	}()
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	<-woke
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
	var childRan atomic.Bool
	s.Spawn("parent", func(p *Proc) {
		p.Compute(time.Millisecond)
		s.Spawn("child", func(c *Proc) {
			c.Compute(time.Millisecond)
			childRan.Store(true)
		})
		p.Compute(time.Millisecond)
	})
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if !childRan.Load() {
		t.Fatal("mid-run spawned proc never ran")
	}
}

func TestVirtualSimClockAdapter(t *testing.T) {
	s := NewSim()
	clk := s.Clock()
	if clk.Domain() != clock.Virtual {
		t.Fatalf("domain = %q, want virtual", clk.Domain())
	}
	var fired bool
	var slept time.Duration
	s.Spawn("user", func(p *Proc) {
		start := clk.Now()
		clk.Sleep(5 * time.Millisecond) // models Compute on the proc
		slept = clk.Since(start)
		clk.AfterFunc(time.Millisecond, func() { fired = true })
		tm := clk.AfterFunc(time.Millisecond, func() { t.Error("stopped timer fired") })
		if !tm.Stop() {
			t.Error("Stop of an armed virtual timer returned false")
		}
		p.Compute(2 * time.Millisecond)
	})
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if slept != 5*time.Millisecond {
		t.Fatalf("virtual Sleep advanced %v, want exactly 5ms", slept)
	}
	if !fired {
		t.Fatal("virtual AfterFunc did not fire")
	}
}
