package fabric

import (
	"testing"
	"time"

	"ovlp/internal/vtime"
)

// A two-node exchange over the real backend: send, RDMA write with
// immediate, RDMA read. Completions and packets must arrive, ground
// truth must record every tagged transfer, and the whole thing must
// be race-clean (this test is the fabric's -race gate).
func TestRealFabricExchange(t *testing.T) {
	sim := vtime.NewRealSim(nil)
	sim.SetDeadline(vtime.Time(30 * time.Second))
	f := New(sim, 2, DefaultCostModel())

	const size = 64 << 10
	var gotPackets []Packet
	var gotCQEs []CQE

	sender := sim.Spawn("sender", func(p *vtime.Proc) {
		nic := f.NIC(0)
		id1 := f.NewXferID()
		f.TagXfer(id1, "eager")
		nic.Send(p, 1, size, id1, "hello")
		id2 := f.NewXferID()
		f.TagXfer(id2, "pipelined-frag")
		nic.RDMAWrite(p, 1, size, id2, "fin")
		id3 := f.NewXferID()
		f.TagXfer(id3, "direct-read")
		nic.RDMARead(p, 1, size, id3)
		for len(gotCQEs) < 3 {
			if e := nic.PollCQ(p); e != nil {
				gotCQEs = append(gotCQEs, *e)
				continue
			}
			if nic.Pending() {
				continue
			}
			p.Park("test.sender")
		}
	})
	receiver := sim.Spawn("receiver", func(p *vtime.Proc) {
		nic := f.NIC(1)
		for len(gotPackets) < 2 {
			if pk := nic.PollInbox(p); pk != nil {
				gotPackets = append(gotPackets, *pk)
				continue
			}
			if nic.Pending() {
				continue
			}
			p.Park("test.receiver")
		}
	})
	f.NIC(0).SetNotify(func() { sender.Unpark() })
	f.NIC(1).SetNotify(func() { receiver.Unpark() })
	if _, err := sim.RunE(); err != nil {
		t.Fatal(err)
	}

	if len(gotCQEs) != 3 {
		t.Fatalf("sender saw %d completions, want 3", len(gotCQEs))
	}
	if len(gotPackets) != 2 {
		t.Fatalf("receiver saw %d packets, want 2", len(gotPackets))
	}
	tr := f.Transfers()
	if len(tr) != 3 {
		t.Fatalf("ground truth has %d transfers, want 3: %+v", len(tr), tr)
	}
	for _, x := range tr {
		if x.Size != size {
			t.Fatalf("transfer %d size %d, want %d", x.XferID, x.Size, size)
		}
		if x.End <= x.Start {
			t.Fatalf("transfer %d has non-positive wire interval [%v, %v]", x.XferID, x.Start, x.End)
		}
		// The wire interval must be at least the serialization time of
		// the payload — the kernel really waited it out.
		if got, min := x.End.Sub(x.Start), f.Cost().Wire(size); got < min {
			t.Fatalf("transfer %d wire interval %v shorter than serialization %v", x.XferID, got, min)
		}
	}
}

// Serialization: two back-to-back sends from one NIC must not overlap
// on the wire — the second's start is at or after the first's end.
func TestRealFabricEgressSerializes(t *testing.T) {
	sim := vtime.NewRealSim(nil)
	sim.SetDeadline(vtime.Time(30 * time.Second))
	f := New(sim, 2, DefaultCostModel())

	const size = 256 << 10
	sim.Spawn("sender", func(p *vtime.Proc) {
		nic := f.NIC(0)
		for i := 0; i < 2; i++ {
			id := f.NewXferID()
			f.TagXfer(id, "eager")
			nic.Send(p, 1, size, id, i)
		}
		seen := 0
		for seen < 2 {
			if e := nic.PollCQ(p); e != nil {
				seen++
				continue
			}
			p.Compute(10 * time.Microsecond)
		}
	})
	sim.Spawn("receiver", func(p *vtime.Proc) {
		nic := f.NIC(1)
		seen := 0
		for seen < 2 {
			if pk := nic.PollInbox(p); pk != nil {
				seen++
				continue
			}
			p.Compute(10 * time.Microsecond)
		}
	})
	if _, err := sim.RunE(); err != nil {
		t.Fatal(err)
	}
	tr := f.Transfers()
	if len(tr) != 2 {
		t.Fatalf("ground truth has %d transfers, want 2", len(tr))
	}
	a, b := tr[0], tr[1]
	if b.Start < a.Start {
		a, b = b, a
	}
	// The egress engine is reserved for the first payload's full
	// serialization before the second starts, so the starts are at
	// least one wire time apart.
	if gap, wire := b.Start.Sub(a.Start), f.Cost().Wire(size); gap < wire {
		t.Fatalf("egress overlap: second start only %v after first, want >= serialization %v", gap, wire)
	}
}

// Faults and crashes are events on the one heap, so a wall-clock fabric
// takes the same plans a virtual one does: a link that drops everything
// loses the packet after an OK completion, and a crash instant waited
// for on the wall clock swallows what is posted after it.
func TestRealFabricAcceptsFaultsAndCrashes(t *testing.T) {
	sim := vtime.NewRealSim(nil)
	sim.SetDeadline(vtime.Time(30 * time.Second))
	f := New(sim, 2, DefaultCostModel())
	if err := f.SetFaults(&FaultPlan{Seed: 1, Default: LinkFaults{DropRate: 1}}); err != nil {
		t.Fatalf("SetFaults on a real sim: %v", err)
	}
	const crashAt = 2 * time.Millisecond
	if err := f.SetCrashes(&CrashPlan{Crashes: []Crash{{Node: 0, At: vtime.Time(crashAt)}}}); err != nil {
		t.Fatalf("SetCrashes on a real sim: %v", err)
	}
	var crashed []NodeID
	f.OnCrash(func(n NodeID) { crashed = append(crashed, n) })
	completions := 0
	sim.Spawn("sender", func(p *vtime.Proc) {
		nic := f.NIC(0)
		nic.Send(p, 1, 1024, f.NewXferID(), "lost")
		p.Compute(time.Millisecond)
		for nic.PollCQ(p) != nil {
			completions++
		}
		p.Compute(2 * crashAt)
		nic.Send(p, 1, 1024, f.NewXferID(), "swallowed")
		p.Compute(time.Millisecond)
		for nic.PollCQ(p) != nil {
			completions++
		}
	})
	if _, err := sim.RunE(); err != nil {
		t.Fatal(err)
	}
	if completions != 1 {
		t.Fatalf("sender saw %d completions, want 1 (the dropped send completes, the post-crash one is swallowed)", completions)
	}
	if f.NIC(1).Pending() {
		t.Fatal("a packet crossed a link that drops everything")
	}
	if st := f.FaultStats(); st.Dropped != 1 {
		t.Fatalf("FaultStats = %+v, want 1 drop", st)
	}
	if len(crashed) != 1 || crashed[0] != 0 {
		t.Fatalf("OnCrash saw %v, want [0]", crashed)
	}
	if st := f.CrashStats(); st.SwallowedTx != 1 {
		t.Fatalf("CrashStats = %+v, want 1 swallowed post", st)
	}
}
