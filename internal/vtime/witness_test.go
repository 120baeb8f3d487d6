package vtime

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"ovlp/internal/clock"
	"ovlp/internal/hostcount"
)

var update = flag.Bool("update", false, "rewrite testdata/kernel_witness.txt from the kernel under test")

const (
	witnessFile  = "testdata/kernel_witness.txt"
	witnessSeeds = 96
)

// witness hashes every kernel callback, in order, with the virtual
// time it fired at: any change in event order, wake-up attribution or
// clock advance changes the digest.
type witness struct {
	s *Sim
	h hash.Hash
}

func (w *witness) line(format string, args ...any) {
	fmt.Fprintf(w.h, format, args...)
	fmt.Fprintf(w.h, " @%d\n", int64(w.s.Now()))
}

func (w *witness) ProcBlocked(p *Proc, state, where string) {
	w.line("blocked %d %s %s", p.ID(), state, where)
}
func (w *witness) ProcResumed(p *Proc) { w.line("resumed %d", p.ID()) }
func (w *witness) ProcDone(p *Proc)    { w.line("done %d", p.ID()) }
func (w *witness) ProcUnparked(p, by *Proc) {
	byID := -1
	if by != nil {
		byID = by.ID()
	}
	w.line("unparked %d by %d", p.ID(), byID)
}
func (w *witness) Deadlock(e *DeadlockError) { w.line("deadlock %v", e) }

// witnessRun executes one seeded random program — procs mixing
// Compute, Park, Unpark, After, AfterCancel with and without cancel,
// Kill from proc and event context, and nested Spawn — and returns
// the digest of its callback log, final time and error, plus how the
// run ended. The generator draws from rng inside the running
// simulation, so a schedule that diverges also diverges the program.
func witnessRun(s *Sim, seed int64) (digest, outcome string) {
	rng := rand.New(rand.NewSource(seed))
	w := &witness{s: s, h: sha256.New()}
	s.SetObserver(w)
	if rng.Intn(6) == 0 {
		s.SetDeadline(Time(50+rng.Intn(400)) * Time(time.Microsecond))
	}
	// Zero delays and small multiples of one unit make same-instant
	// ties, where only seq orders events, the common case.
	dur := func() time.Duration {
		return time.Duration(rng.Intn(4)*rng.Intn(6)) * 10 * time.Microsecond
	}
	var procs []*Proc
	pick := func() *Proc { return procs[rng.Intn(len(procs))] }
	kills := 0

	var spawn func(depth int)
	body := func(depth int) func(*Proc) {
		steps := 5 + rng.Intn(25)
		shielded := rng.Intn(8) != 0
		return func(p *Proc) {
			if shielded {
				defer func() {
					if r := recover(); r != nil {
						w.line("recovered %d %v", p.ID(), r)
						p.Compute(dur()) // cleanup that blocks again
					}
				}()
			}
			for i := 0; i < steps; i++ {
				switch rng.Intn(11) {
				case 0, 1, 2:
					p.Compute(dur())
				case 3:
					p.Compute(0)
				case 4:
					s.After(dur(), p.Unpark) // a wake-up of its own, possibly stale by then
					p.Park("self-timed")
				case 5:
					if rng.Intn(8) == 0 {
						p.Park("needs-peer")
					}
				case 6:
					pick().Unpark()
				case 7:
					q := pick()
					s.After(dur(), func() {
						w.line("cb unpark %d", q.ID())
						q.Unpark()
					})
				case 8:
					timer := s.AfterCancel(dur(), Func(func() {
						w.line("cb timer")
						pick().Unpark()
					}))
					switch rng.Intn(3) {
					case 0:
						timer.Stop()
					case 1:
						s.After(dur(), func() { timer.Stop() })
					}
				case 9:
					if rng.Intn(5) == 0 {
						kills++
						q, err := pick(), fmt.Errorf("kill #%d", kills)
						if rng.Intn(2) == 0 {
							q.Kill(err)
						} else {
							s.After(dur(), func() { q.Kill(err) })
						}
					}
				case 10:
					if depth < 2 && len(procs) < 12 {
						spawn(depth + 1)
					}
				}
			}
		}
	}
	spawn = func(depth int) {
		fn := body(depth)
		procs = append(procs, s.Spawn(fmt.Sprintf("p%d", len(procs)), fn))
	}
	for n := 2 + rng.Intn(4); n > 0; n-- {
		spawn(0)
	}

	end, err := s.RunE()
	w.line("end %d err %v", int64(end), err)
	switch de, ok := err.(*DeadlockError); {
	case err == nil:
		outcome = "ok"
	case ok && strings.Contains(de.Reason, "deadline"):
		outcome = "deadline"
	case ok:
		outcome = "deadlock"
	default:
		outcome = "panic"
	}
	return fmt.Sprintf("%x", w.h.Sum(nil)), outcome
}

// TestKernelWitness pins the kernel's observable schedule. The digests
// in testdata were generated by the scheduler-goroutine kernel that
// preceded the baton-passing one (go test -run KernelWitness -update on
// that commit); a kernel rewrite must reproduce them unedited — and so
// must the real-clock kernel on a clock that moves exactly when slept
// on, which is what makes it the same kernel and not a second one.
func TestKernelWitness(t *testing.T) {
	t.Run("virtual", func(t *testing.T) { kernelWitness(t, NewSim) })
	t.Run("stepped", func(t *testing.T) {
		if *update {
			t.Skip("the witness is only ever written from the virtual kernel")
		}
		kernelWitness(t, func() *Sim { return NewRealSim(&clock.Stepped{}) })
	})
}

func kernelWitness(t *testing.T, newSim func() *Sim) {
	got := make([]string, witnessSeeds)
	outcomes := map[string]int{}
	for seed := range got {
		digest, outcome := witnessRun(newSim(), int64(seed))
		got[seed] = fmt.Sprintf("%d %s %s", seed, outcome, digest)
		outcomes[outcome]++
	}
	t.Logf("outcomes over %d seeds: %v", witnessSeeds, outcomes)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(witnessFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(witnessFile)
	if err != nil {
		t.Fatalf("missing witness file (generate with -update on the reference commit): %v", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != witnessSeeds {
		t.Fatalf("%s has %d lines, want %d", witnessFile, len(want), witnessSeeds)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("seed %d: schedule diverged from the reference kernel:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestNoGoroutineLeakAfterRun checks that every proc goroutine exits
// once a run completes normally: whichever goroutine ends up running
// the last event must not stay parked behind it.
func TestNoGoroutineLeakAfterRun(t *testing.T) {
	base := hostcount.Base()
	s := NewSim()
	var procs []*Proc
	for i := 0; i < 8; i++ {
		i := i
		procs = append(procs, s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 20; step++ {
				p.Compute(time.Duration(i+1) * time.Microsecond)
				procs[(i+1)%len(procs)].Unpark()
				if step%3 == 0 {
					s.After(time.Microsecond, p.Unpark)
					p.Park("ring")
				}
			}
			s.Spawn("child", func(c *Proc) { c.Compute(time.Microsecond) })
		}))
	}
	s.After(time.Millisecond, func() {}) // the last event is a plain callback
	if _, err := s.RunE(); err != nil {
		t.Fatal(err)
	}
	if n := hostcount.Goroutines(base); n > base {
		t.Fatalf("%d goroutines after RunE, %d before", n, base)
	}
}
