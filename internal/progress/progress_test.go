package progress

import (
	"testing"
	"time"

	"ovlp/internal/vtime"
)

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{Manual, Piggyback, Thread} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("psychic"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
	if got, err := ParseMode("async"); err != nil || got != Thread {
		t.Errorf("ParseMode(async) = %v, %v", got, err)
	}
}

// TestThreadQuantum runs a thread-mode engine in a bare simulation and
// checks that polls land once per quantum while work is pending, and
// that Stop lets the simulation drain.
func TestThreadQuantum(t *testing.T) {
	sim := vtime.NewSim()
	var polls []vtime.Time
	var eng *Engine
	sim.Spawn("app", func(p *vtime.Proc) {
		eng = New(sim, Config{Mode: Thread, Quantum: 5 * time.Microsecond}, Hooks{
			Poll: func(tp *vtime.Proc) bool {
				polls = append(polls, sim.Now())
				return false
			},
			Wake: func() {},
		})
		eng.Start("app.progress")
		eng.OpStarted()
		p.Compute(22 * time.Microsecond)
		eng.OpDone()
		eng.Stop()
	})
	if _, err := sim.RunE(); err != nil {
		t.Fatalf("RunE: %v", err)
	}
	// Polls at t=0 (OpStarted wake) then every 5us during the 22us
	// compute. An Unpark permit pending when the thread reaches its
	// quantum park can duplicate a poll at the same instant; what
	// matters is that distinct poll times are quantum-spaced.
	var uniq []vtime.Time
	for _, ts := range polls {
		if len(uniq) == 0 || ts != uniq[len(uniq)-1] {
			uniq = append(uniq, ts)
		}
	}
	if len(uniq) < 4 {
		t.Fatalf("only %d distinct polls during compute: %v", len(uniq), polls)
	}
	for i := 1; i < len(uniq); i++ {
		if d := time.Duration(uniq[i] - uniq[i-1]); d != 5*time.Microsecond {
			t.Errorf("poll gap %d = %v, want 5us", i, d)
		}
	}
}

// TestManualNeverSpawns checks the cheap modes spawn no thread and
// report their call-boundary behaviour.
func TestManualNeverSpawns(t *testing.T) {
	sim := vtime.NewSim()
	sim.Spawn("app", func(p *vtime.Proc) {
		e := New(sim, Config{}, Hooks{Poll: func(*vtime.Proc) bool { return false }, Wake: func() {}})
		e.Start("nope")
		e.OpStarted()
		e.OpDone()
		e.Stop()
		if e.PollOnCall() {
			t.Error("manual mode polls on call")
		}
		pb := New(sim, Config{Mode: Piggyback}, Hooks{})
		if !pb.PollOnCall() {
			t.Error("piggyback mode does not poll on call")
		}
	})
	if _, err := sim.RunE(); err != nil {
		t.Fatalf("RunE: %v", err)
	}
}

// One quantum of the progress thread — its timer, park, wake-up and
// poll — allocates nothing: the timer is a typed wake-up, not a
// closure or a method value.
func TestThreadQuantumAllocs(t *testing.T) {
	const quantum = 5 * time.Microsecond
	sim := vtime.NewSim()
	polls := 0
	allocs := -1.0
	sim.Spawn("app", func(p *vtime.Proc) {
		eng := New(sim, Config{Mode: Thread, Quantum: quantum}, Hooks{
			Poll: func(*vtime.Proc) bool { polls++; return false },
			Wake: func() {},
		})
		eng.Start("app.progress")
		eng.OpStarted()
		step := func() { p.Compute(quantum) } // the thread polls once meanwhile
		for i := 0; i < 64; i++ {
			step()
		}
		before := polls
		allocs = testing.AllocsPerRun(200, step)
		if got := polls - before; got != 201 {
			t.Errorf("%d polls in 201 quanta, want one each", got)
		}
		eng.OpDone()
		eng.Stop()
	})
	if _, err := sim.RunE(); err != nil {
		t.Fatalf("RunE: %v", err)
	}
	if allocs != 0 {
		t.Errorf("a progress-thread quantum allocated %v times, want 0", allocs)
	}
}
