package trace

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ovlp/internal/vtime"
)

func TestKernelObserverSpans(t *testing.T) {
	tr := New(Options{})
	sim := vtime.NewSim()
	sim.SetObserver(tr.KernelObserver())
	var p *vtime.Proc
	p = sim.Spawn("worker", func(p *vtime.Proc) {
		p.Compute(10 * time.Microsecond)
		p.Park("test.park")
	})
	sim.After(30*time.Microsecond, func() { p.Unpark() })
	sim.Run()

	tracks := tr.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("want one host track, got %d", len(tracks))
	}
	tk := tracks[0]
	if tk.Group() != GroupHost || tk.Name() != "worker" {
		t.Errorf("track identity wrong: %v %q", tk.Group(), tk.Name())
	}
	recs := tk.Recs()
	var names []string
	for _, r := range recs {
		names = append(names, r.Name)
	}
	// The unpark instant logs at wake time (t=30µs), before the park
	// span record, which is only emitted once the span closes.
	want := []string{"spawn", "compute", "unpark", "park", "done"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("record sequence %v, want %v", names, want)
	}
	comp, unpark, park := recs[1], recs[2], recs[3]
	if comp.Start != us(0) || comp.End() != us(10) {
		t.Errorf("compute span [%v,%v), want [0,10µs)", comp.Start, comp.End())
	}
	if unpark.Start != us(30) || unpark.Args.Peer != NoPeer {
		t.Errorf("unpark instant wrong (want t=30µs, no peer: woken from event context): %+v", unpark)
	}
	if park.Start != us(10) || park.End() != us(30) || park.Args.Detail != "test.park" {
		t.Errorf("park span wrong: %+v", park)
	}
}

func TestKernelObserverSkipsZeroWidthBlocks(t *testing.T) {
	tr := New(Options{})
	sim := vtime.NewSim()
	sim.SetObserver(tr.KernelObserver())
	sim.Spawn("y", func(p *vtime.Proc) {
		p.Compute(0) // zero-duration block: noise, not signal
		p.Compute(time.Microsecond)
	})
	sim.Run()
	for _, r := range tr.Tracks()[0].Recs() {
		if r.Name == "compute" && r.Dur == 0 {
			t.Errorf("zero-width block emitted: %+v", r)
		}
	}
}

// A proc the observer has seen costs it an index per kernel event: its
// blocks become spans with no map lookup and no allocation.
func TestKernelObserverKnownProcAllocs(t *testing.T) {
	tr := New(Options{})
	sim := vtime.NewSim()
	sim.SetObserver(tr.KernelObserver())
	allocs := -1.0
	sim.Spawn("worker", func(p *vtime.Proc) {
		step := func() { p.Compute(time.Microsecond) } // ProcBlocked, ProcResumed, one span
		for i := 0; i < 600; i++ {                     // grow the first ring past what the measured steps need
			step()
		}
		allocs = testing.AllocsPerRun(200, step)
	})
	sim.Run()
	if allocs != 0 {
		t.Errorf("ProcBlocked+ProcResumed on a known proc: %v allocs per block, want 0", allocs)
	}
	if n := len(tr.Tracks()[0].Recs()); n != 1+600+201+1 {
		t.Errorf("track holds %d records, want spawn + 801 compute spans + done", n)
	}
}

func TestKernelObserverDeadlock(t *testing.T) {
	tr := New(Options{})
	sim := vtime.NewSim()
	sim.SetObserver(tr.KernelObserver())
	sim.Spawn("stuck", func(p *vtime.Proc) {
		p.Park("never.unparked")
	})
	_, err := sim.RunE()
	var de *vtime.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if got := tr.Metrics().Counter("kernel.deadlocks").Value(); got != 1 {
		t.Errorf("kernel.deadlocks = %d, want 1", got)
	}
	var found bool
	for _, r := range tr.Tracks()[0].Recs() {
		if r.Name == "deadlock" && strings.Contains(r.Args.Detail, "never.unparked") {
			found = true
		}
	}
	if !found {
		t.Error("no deadlock instant naming the blocking site")
	}
}
