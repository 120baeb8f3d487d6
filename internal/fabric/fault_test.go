package fabric

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ovlp/internal/vtime"
)

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
		want string
	}{
		{"negative drop", FaultPlan{Default: LinkFaults{DropRate: -0.1}}, "DropRate"},
		{"drop above one", FaultPlan{Default: LinkFaults{DropRate: 1.5}}, "DropRate"},
		{"negative dup", FaultPlan{Default: LinkFaults{DupRate: -1}}, "DupRate"},
		{"negative jitter", FaultPlan{Default: LinkFaults{JitterMax: -time.Microsecond}}, "JitterMax"},
		{"bandwidth above one", FaultPlan{Default: LinkFaults{BandwidthFactor: 2}}, "BandwidthFactor"},
		{"inverted window", FaultPlan{Stalls: []StallWindow{{Node: 0, Start: 100, End: 50}}}, "not after start"},
		{"negative window start", FaultPlan{Stalls: []StallWindow{{Node: 0, Start: -1, End: 50}}}, "negative start"},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error mentioning %q", c.name, err, c.want)
		}
	}
	good := FaultPlan{Seed: 1, Default: LinkFaults{DropRate: 0.1, JitterMax: time.Microsecond}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestFaultPlanActive(t *testing.T) {
	var nilPlan *FaultPlan
	if nilPlan.Active() {
		t.Fatal("nil plan is active")
	}
	if (&FaultPlan{Seed: 42}).Active() {
		t.Fatal("zero-rate plan is active")
	}
	if !(&FaultPlan{Default: LinkFaults{DropRate: 0.01}}).Active() {
		t.Fatal("dropping plan is inactive")
	}
	if !(&FaultPlan{Stalls: []StallWindow{{Node: 0, Start: 0, End: 10}}}).Active() {
		t.Fatal("stalling plan is inactive")
	}
}

func TestSetFaultsRejectsUnknownNodes(t *testing.T) {
	sim := vtime.NewSim()
	f := New(sim, 2, DefaultCostModel())
	err := f.SetFaults(&FaultPlan{Stalls: []StallWindow{{Node: 9, Start: 0, End: 10}}})
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("SetFaults = %v, want node-range error", err)
	}
}

func TestNICPanicNamesValidRange(t *testing.T) {
	sim := vtime.NewSim()
	f := New(sim, 4, DefaultCostModel())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for unknown node")
		}
		if s := r.(string); !strings.Contains(s, "0..3") {
			t.Fatalf("panic %q does not name the valid range", s)
		}
	}()
	f.NIC(7)
}

// TestDropEveryIsDeterministic checks the counter-based loss schedule:
// every 2nd packet on the link vanishes, with OK completions throughout
// (Send-class loss is silent).
func TestDropEveryIsDeterministic(t *testing.T) {
	sim := vtime.NewSim()
	f := New(sim, 2, DefaultCostModel())
	if err := f.SetFaults(&FaultPlan{Default: LinkFaults{DropEvery: 2}}); err != nil {
		t.Fatal(err)
	}
	var got []int
	rx := sim.Spawn("rx", func(p *vtime.Proc) {
		for p.Now() < vtime.Time(2*time.Millisecond) {
			for pkt := f.NIC(1).PollInbox(p); pkt != nil; pkt = f.NIC(1).PollInbox(p) {
				got = append(got, pkt.Payload.(int))
			}
			p.Compute(100 * time.Microsecond)
		}
	})
	_ = rx
	sim.Spawn("tx", func(p *vtime.Proc) {
		for i := 1; i <= 6; i++ {
			f.NIC(0).Send(p, 1, 64, 0, i)
		}
	})
	sim.Run()
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	if s := f.FaultStats(); s.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", s.Dropped)
	}
}

// ackFunc adapts a function to AckHandler.
type ackFunc func(start, end vtime.Time)

func (f ackFunc) Acked(_ uint64, _ int, start, end vtime.Time) { f(start, end) }

// TestReliableRecoversFromLoss drives the reliability layer directly
// over a lossy link: every sequenced message must be delivered exactly
// once and acknowledged, with retransmissions making up for the drops.
func TestReliableRecoversFromLoss(t *testing.T) {
	sim := vtime.NewSim()
	f := New(sim, 2, DefaultCostModel())
	if err := f.SetFaults(&FaultPlan{Seed: 7, Default: LinkFaults{DropRate: 0.3, DupRate: 0.2}}); err != nil {
		t.Fatal(err)
	}
	const msgs = 20
	acked := 0
	var delivered []int

	var txProc, rxProc *vtime.Proc
	var txRel, rxRel *Reliable

	sim.Spawn("rx", func(p *vtime.Proc) {
		rxProc = p
		rxRel = NewReliable(f.NIC(1), ReliableParams{}, func() { p.Unpark() })
		f.NIC(1).SetNotify(func() { p.Unpark() })
		for len(delivered) < msgs {
			progressed := false
			for pkt := f.NIC(1).PollInbox(p); pkt != nil; pkt = f.NIC(1).PollInbox(p) {
				progressed = true
				if !rxRel.Accept(pkt) {
					continue
				}
				delivered = append(delivered, int(pkt.Hdr.W[0]))
			}
			for cqe := f.NIC(1).PollCQ(p); cqe != nil; cqe = f.NIC(1).PollCQ(p) {
				progressed = true
				rxRel.TakeWR(cqe.WRID)
			}
			if !progressed && !f.NIC(1).Pending() {
				p.Park("rx")
			}
		}
	})
	sim.Spawn("tx", func(p *vtime.Proc) {
		txProc = p
		txRel = NewReliable(f.NIC(0), ReliableParams{}, func() { p.Unpark() })
		f.NIC(0).SetNotify(func() { p.Unpark() })
		for i := 1; i <= msgs; i++ {
			txRel.Send(p, 1, 64, 0, Header{Kind: 1, W: [HeaderWords]uint64{uint64(i)}}, "send", ackFunc(func(start, end vtime.Time) {
				if end <= start {
					t.Errorf("ack carries inverted interval [%v, %v]", start, end)
				}
				acked++
			}))
		}
		for acked < msgs {
			progressed := false
			for pkt := f.NIC(0).PollInbox(p); pkt != nil; pkt = f.NIC(0).PollInbox(p) {
				progressed = true
				txRel.Accept(pkt)
			}
			for cqe := f.NIC(0).PollCQ(p); cqe != nil; cqe = f.NIC(0).PollCQ(p) {
				progressed = true
				txRel.TakeWR(cqe.WRID)
			}
			if did, err := txRel.RunDue(p); err != nil {
				t.Errorf("RunDue: %v", err)
				return
			} else if did {
				progressed = true
			}
			if !progressed && !f.NIC(0).Pending() && !txRel.HasDue() {
				p.Park("tx")
			}
		}
	})
	_, _ = txProc, rxProc
	if _, err := sim.RunE(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if acked != msgs {
		t.Fatalf("acked %d/%d", acked, msgs)
	}
	if len(delivered) != msgs {
		t.Fatalf("delivered %d messages, want %d (dups not suppressed or losses not recovered)", len(delivered), msgs)
	}
	seen := make(map[int]bool)
	for _, v := range delivered {
		if seen[v] {
			t.Fatalf("message %d delivered twice", v)
		}
		seen[v] = true
	}
	st := txRel.Stats()
	if st.Retransmits == 0 {
		t.Fatal("expected retransmissions under 30% loss")
	}
}

// TestReliableGivesUpOnDeadPeer: with every packet on the forward link
// dropped, the sender must exhaust its retries and report the peer
// unreachable rather than hang.
func TestReliableGivesUpOnDeadPeer(t *testing.T) {
	sim := vtime.NewSim()
	f := New(sim, 2, DefaultCostModel())
	if err := f.SetFaults(&FaultPlan{Default: LinkFaults{DropEvery: 1}}); err != nil {
		t.Fatal(err)
	}
	var got error
	sim.Spawn("tx", func(p *vtime.Proc) {
		rel := NewReliable(f.NIC(0), ReliableParams{MaxRetries: 3}, func() { p.Unpark() })
		rel.Send(p, 1, 64, 0, Header{Kind: 1}, "send", nil)
		for got == nil {
			for cqe := f.NIC(0).PollCQ(p); cqe != nil; cqe = f.NIC(0).PollCQ(p) {
				rel.TakeWR(cqe.WRID)
			}
			if _, err := rel.RunDue(p); err != nil {
				got = err
				return
			}
			if !f.NIC(0).Pending() && !rel.HasDue() {
				p.Park("tx")
			}
		}
	})
	if _, err := sim.RunE(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	var de *DeliveryError
	if !errors.As(got, &de) {
		t.Fatalf("got %v (%T), want *DeliveryError", got, got)
	}
	if !de.PeerSilent {
		t.Fatal("peer never acked anything; PeerSilent should be true")
	}
	if de.Attempts != 4 {
		t.Fatalf("Attempts = %d, want 4 (1 try + 3 retries)", de.Attempts)
	}
}

// TestStallWindowDelaysTransfer: a transfer posted inside a stall
// window begins only when the window ends.
func TestStallWindowDelaysTransfer(t *testing.T) {
	cost := DefaultCostModel()
	stallEnd := vtime.Time(500 * time.Microsecond)
	run := func(stall bool) vtime.Time {
		sim := vtime.NewSim()
		f := New(sim, 2, cost)
		if stall {
			if err := f.SetFaults(&FaultPlan{Stalls: []StallWindow{{Node: 0, Start: 0, End: stallEnd}}}); err != nil {
				t.Fatal(err)
			}
		}
		var arrived vtime.Time
		rx := sim.Spawn("rx", func(p *vtime.Proc) {
			for arrived == 0 {
				if pkt := f.NIC(1).PollInbox(p); pkt != nil {
					arrived = p.Now()
					return
				}
				p.Park("rx")
			}
		})
		f.NIC(1).SetNotify(func() { rx.Unpark() })
		sim.Spawn("tx", func(p *vtime.Proc) { f.NIC(0).Send(p, 1, 1024, 0, "x") })
		if _, err := sim.RunE(); err != nil {
			t.Fatal(err)
		}
		return arrived
	}
	clean, stalled := run(false), run(true)
	if stalled < stallEnd {
		t.Fatalf("stalled transfer arrived at %v, before the window end %v", stalled, stallEnd)
	}
	if stalled <= clean {
		t.Fatalf("stall did not delay the transfer (clean %v, stalled %v)", clean, stalled)
	}
}

// TestPermanentStallBlackholes: a Forever stall swallows work requests;
// a receiver waiting on the data wedges, and the kernel diagnoses it as
// a structured deadlock.
func TestPermanentStallBlackholes(t *testing.T) {
	sim := vtime.NewSim()
	f := New(sim, 2, DefaultCostModel())
	if err := f.SetFaults(&FaultPlan{Stalls: []StallWindow{{Node: 0, Start: 0, End: Forever}}}); err != nil {
		t.Fatal(err)
	}
	rx := sim.Spawn("rx", func(p *vtime.Proc) {
		for {
			if pkt := f.NIC(1).PollInbox(p); pkt != nil {
				t.Error("packet escaped a blackholed NIC")
				return
			}
			p.Park("rx")
		}
	})
	f.NIC(1).SetNotify(func() { rx.Unpark() })
	sim.Spawn("tx", func(p *vtime.Proc) { f.NIC(0).Send(p, 1, 64, 0, "x") })
	_, err := sim.RunE()
	var dl *vtime.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *vtime.DeadlockError", err)
	}
	if f.FaultStats().Blackholed == 0 {
		t.Fatal("Blackholed counter not incremented")
	}
}

// TestDegradedBandwidthStretchesWire: halving the bandwidth factor must
// lengthen the recorded transfer interval.
func TestDegradedBandwidthStretchesWire(t *testing.T) {
	run := func(factor float64) time.Duration {
		sim := vtime.NewSim()
		f := New(sim, 2, DefaultCostModel())
		if factor != 0 {
			if err := f.SetFaults(&FaultPlan{Default: LinkFaults{BandwidthFactor: factor}}); err != nil {
				t.Fatal(err)
			}
		}
		sim.Spawn("tx", func(p *vtime.Proc) { f.NIC(0).RDMAWrite(p, 1, 1<<20, f.NewXferID(), nil) })
		sim.Run()
		tr := f.Transfers()
		if len(tr) != 1 {
			t.Fatalf("recorded %d transfers, want 1", len(tr))
		}
		return tr[0].End.Sub(tr[0].Start)
	}
	nominal, degraded := run(0), run(0.5)
	if degraded < 2*nominal-time.Millisecond {
		t.Fatalf("half bandwidth: interval %v, want roughly 2x the nominal %v", degraded, nominal)
	}
}

// TestSameSeedSameRun: an identical plan and program reproduce the
// ground-truth log bit-for-bit; a different seed perturbs it.
func TestSameSeedSameRun(t *testing.T) {
	run := func(seed int64) []Transfer {
		sim := vtime.NewSim()
		f := New(sim, 2, DefaultCostModel())
		if err := f.SetFaults(&FaultPlan{Seed: seed, Default: LinkFaults{DropRate: 0.3, JitterMax: 2 * time.Microsecond}}); err != nil {
			t.Fatal(err)
		}
		sim.Spawn("tx", func(p *vtime.Proc) {
			for i := 0; i < 30; i++ {
				f.NIC(0).RDMAWrite(p, 1, 4096, f.NewXferID(), nil)
				p.Compute(10 * time.Microsecond)
			}
		})
		sim.Run()
		return append([]Transfer(nil), f.Transfers()...)
	}
	a, b := run(11), run(11)
	if len(a) != len(b) {
		t.Fatalf("same seed, different transfer counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, transfer %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(12)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs (PRNG not wired through)")
	}
}
