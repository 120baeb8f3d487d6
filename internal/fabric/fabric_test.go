package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

func twoNodes(t *testing.T) (*vtime.Sim, *Fabric) {
	t.Helper()
	sim := vtime.NewSim()
	return sim, New(sim, 2, DefaultCostModel())
}

func TestSendDeliversPayload(t *testing.T) {
	sim, f := twoNodes(t)
	src, dst := f.NIC(0), f.NIC(1)

	var got *Packet
	receiver := sim.Spawn("recv", func(p *vtime.Proc) {
		for got == nil {
			if q := dst.PollInbox(p); q != nil {
				got = q
				return
			}
			p.Park("recv")
		}
	})
	dst.SetNotify(func() { receiver.Unpark() })

	sim.Spawn("send", func(p *vtime.Proc) {
		src.Send(p, 1, 4096, f.NewXferID(), "hello")
	})
	sim.Run()

	if got == nil {
		t.Fatal("nothing delivered")
	}
	if got.Payload.(string) != "hello" || got.From != 0 || got.Size != 4096 {
		t.Fatalf("bad packet %+v", got)
	}
}

func TestSendLocalCompletionBeforeRemoteArrival(t *testing.T) {
	sim, f := twoNodes(t)
	src, dst := f.NIC(0), f.NIC(1)
	var cqeAt, arriveAt vtime.Time

	receiver := sim.Spawn("recv", func(p *vtime.Proc) {
		for {
			if q := dst.PollInbox(p); q != nil {
				arriveAt = p.Now()
				return
			}
			p.Park("recv")
		}
	})
	dst.SetNotify(func() { receiver.Unpark() })

	sender := sim.Spawn("send", func(p *vtime.Proc) {
		src.Send(p, 1, 64<<10, 0, struct{}{})
		for {
			if c := src.PollCQ(p); c != nil {
				cqeAt = p.Now()
				return
			}
			p.Park("send")
		}
	})
	src.SetNotify(func() { sender.Unpark() })
	sim.Run()

	if cqeAt == 0 || arriveAt == 0 {
		t.Fatal("events did not fire")
	}
	if cqeAt >= arriveAt {
		t.Errorf("local CQE at %v should precede remote arrival at %v (link latency)", cqeAt, arriveAt)
	}
}

func TestRDMAWriteWithoutImmediateIsInvisibleRemotely(t *testing.T) {
	sim, f := twoNodes(t)
	src, dst := f.NIC(0), f.NIC(1)
	sim.Spawn("send", func(p *vtime.Proc) {
		src.RDMAWrite(p, 1, 1<<20, f.NewXferID(), nil)
		for src.PollCQ(p) == nil {
			p.Sleep(10 * time.Microsecond)
		}
	})
	sim.Run()
	if dst.Pending() {
		t.Error("plain RDMA write must not notify the remote host")
	}
	if len(f.Transfers()) != 1 {
		t.Fatalf("ground truth has %d transfers, want 1", len(f.Transfers()))
	}
}

func TestRDMAReadPullsFromRemote(t *testing.T) {
	sim, f := twoNodes(t)
	reader := f.NIC(0)
	var doneAt vtime.Time
	sim.Spawn("read", func(p *vtime.Proc) {
		reader.RDMARead(p, 1, 512<<10, f.NewXferID())
		for {
			if c := reader.PollCQ(p); c != nil {
				if c.Kind != OpRDMARead {
					t.Errorf("completion kind %v", c.Kind)
				}
				doneAt = p.Now()
				return
			}
			p.Sleep(5 * time.Microsecond)
		}
	})
	sim.Run()

	cost := f.Cost()
	// Read needs request propagation + data serialization + return.
	minimum := cost.Wire(512<<10) + 2*cost.LinkLatency
	if doneAt.Duration() < minimum {
		t.Errorf("read completed in %v, physically needs at least %v", doneAt.Duration(), minimum)
	}
	tr := f.Transfers()[0]
	if tr.Src != 1 || tr.Dst != 0 {
		t.Errorf("truth direction wrong: %+v", tr)
	}
}

func TestEgressSerialization(t *testing.T) {
	// Two back-to-back sends from one NIC must serialize on its
	// egress: the second transfer starts no earlier than the first
	// ends.
	sim, f := twoNodes(t)
	src := f.NIC(0)
	sim.Spawn("send", func(p *vtime.Proc) {
		src.Send(p, 1, 256<<10, f.NewXferID(), nil)
		src.Send(p, 1, 256<<10, f.NewXferID(), nil)
	})
	sim.Run()
	trs := f.Transfers()
	if len(trs) != 2 {
		t.Fatalf("want 2 transfers, got %d", len(trs))
	}
	a, b := trs[0], trs[1]
	if a.Start > b.Start {
		a, b = b, a
	}
	if b.Start < a.End-vtime.Time(f.Cost().LinkLatency) {
		t.Errorf("second transfer started at %v before first left the wire at %v", b.Start, a.End)
	}
}

func TestDistinctSourcesDoNotSerialize(t *testing.T) {
	sim := vtime.NewSim()
	f := New(sim, 3, DefaultCostModel())
	for i := 0; i < 2; i++ {
		nic := f.NIC(NodeID(i))
		sim.Spawn("send", func(p *vtime.Proc) {
			nic.Send(p, 2, 1<<20, f.NewXferID(), nil)
		})
	}
	sim.Run()
	trs := f.Transfers()
	if len(trs) != 2 {
		t.Fatalf("want 2 transfers, got %d", len(trs))
	}
	// Both should be in flight concurrently: each starts before the
	// other ends.
	if trs[0].Start >= trs[1].End || trs[1].Start >= trs[0].End {
		t.Errorf("transfers from different NICs serialized: %+v / %+v", trs[0], trs[1])
	}
}

func TestCostModelArithmetic(t *testing.T) {
	c := CostModel{
		LinkLatency:      time.Microsecond,
		Bandwidth:        1e9, // 1 GB/s
		PacketOverhead:   100 * time.Nanosecond,
		MemCopyBandwidth: 2e9,
		RegBase:          10 * time.Microsecond,
		RegPerPage:       time.Microsecond,
	}
	if got := c.Wire(1000); got != 100*time.Nanosecond+time.Microsecond {
		t.Errorf("Wire(1000) = %v", got)
	}
	if got := c.Copy(2000); got != time.Microsecond {
		t.Errorf("Copy(2000) = %v", got)
	}
	if got := c.RegCost(4096); got != 11*time.Microsecond {
		t.Errorf("RegCost(4096) = %v", got)
	}
	if got := c.RegCost(4097); got != 12*time.Microsecond {
		t.Errorf("RegCost(4097) = %v (two pages)", got)
	}
	if got := c.TransferTime(1000); got != c.Wire(1000)+c.LinkLatency {
		t.Errorf("TransferTime = %v", got)
	}
}

func TestPollChargesOverhead(t *testing.T) {
	sim, f := twoNodes(t)
	nic := f.NIC(0)
	var elapsed time.Duration
	sim.Spawn("poll", func(p *vtime.Proc) {
		start := p.Now()
		for i := 0; i < 10; i++ {
			nic.PollCQ(p)
		}
		elapsed = p.Now().Sub(start)
	})
	sim.Run()
	if want := 10 * f.Cost().PollOverhead; elapsed != want {
		t.Errorf("10 polls took %v, want %v", elapsed, want)
	}
}

func TestOpKindStrings(t *testing.T) {
	if OpSend.String() != "send" || OpRDMAWrite.String() != "rdma-write" || OpRDMARead.String() != "rdma-read" {
		t.Fatal("OpKind labels wrong")
	}
}

func TestBadNodePanics(t *testing.T) {
	_, f := twoNodes(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	f.NIC(7)
}

// Property: every recorded transfer has a positive-duration interval
// of at least the wire time, arrival order is causally consistent, and
// transfers sourced by one NIC never overlap each other on its egress
// link.
func TestQuickTruthIntervals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := vtime.NewSim()
		nodes := rng.Intn(4) + 2
		fab := New(sim, nodes, DefaultCostModel())
		for n := 0; n < nodes; n++ {
			nic := fab.NIC(NodeID(n))
			count := rng.Intn(8)
			gaps := make([]time.Duration, count)
			sizes := make([]int, count)
			dsts := make([]int, count)
			for i := range gaps {
				gaps[i] = time.Duration(rng.Intn(1000)) * time.Microsecond
				sizes[i] = rng.Intn(1 << 20)
				dsts[i] = rng.Intn(nodes)
			}
			n := n
			sim.Spawn("sender", func(p *vtime.Proc) {
				for i := range gaps {
					p.Compute(gaps[i])
					dst := dsts[i]
					if dst == n {
						dst = (dst + 1) % nodes
					}
					nic.RDMAWrite(p, NodeID(dst), sizes[i], fab.NewXferID(), nil)
				}
			})
		}
		sim.Run()

		cost := fab.Cost()
		bySource := map[NodeID][]Transfer{}
		for _, tr := range fab.Transfers() {
			if tr.End <= tr.Start {
				return false
			}
			if tr.End.Sub(tr.Start) < cost.Wire(tr.Size) {
				return false
			}
			bySource[tr.Src] = append(bySource[tr.Src], tr)
		}
		for _, list := range bySource {
			for i := 0; i < len(list); i++ {
				for j := i + 1; j < len(list); j++ {
					a, b := list[i], list[j]
					aEnd := a.End - vtime.Time(cost.LinkLatency) // wire occupancy excludes propagation
					bEnd := b.End - vtime.Time(cost.LinkLatency)
					if a.Start < bEnd && b.Start < aEnd {
						return false // egress overlap
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The poll queues hand out a reused slot: the entry must survive
// arrivals (which may rewind or regrow the backing array) until the
// next pop, entries must come out in order, and a queue drained
// between bursts must stop allocating.
func TestFifoOrderSlotLifetimeAndAllocs(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	burst := func(push, pop int) {
		for i := 0; i < push; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < pop; i++ {
			got := q.pop()
			if got == nil || *got != want {
				t.Fatalf("pop = %v, want %d", got, want)
			}
			q.push(next) // lands on the slot just vacated once the queue rewinds
			next++
			if *got != want {
				t.Fatalf("polled entry changed to %d under a push, want %d", *got, want)
			}
			want++
		}
	}
	burst(3, 2)
	burst(5, 4)
	for !q.empty() {
		if got := q.pop(); *got != want {
			t.Fatalf("drain pop = %d, want %d", *got, want)
		}
		want++
	}
	if q.pop() != nil || want != next {
		t.Fatalf("drained %d of %d entries", want, next)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			q.push(i)
		}
		for q.pop() != nil {
		}
	}); allocs != 0 {
		t.Fatalf("steady-state burst allocated %v times, want 0", allocs)
	}
}

// A NIC's trace track is created on its first traced event — creation
// order is export order — and after that nicTrack is a cached pointer:
// no name formatting, no tracer lookup, no allocation per wire event.
func TestNICTrackCached(t *testing.T) {
	_, f := twoNodes(t)
	if f.nicTrack(1) != nil {
		t.Fatal("untraced fabric must hand out nil tracks")
	}
	tr := trace.New(trace.Options{})
	f.SetTrace(tr)
	if len(tr.Tracks()) != 0 {
		t.Fatal("SetTrace must not create tracks ahead of the first event")
	}
	tk := f.nicTrack(1)
	if tk == nil || tk != tr.Track(trace.GroupNIC, 1, "") || tk.Name() != "nic1" {
		t.Fatalf("nicTrack(1) = %v, want the tracer's nic1 track", tk)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if f.nicTrack(1) != tk {
			t.Fatal("cached track changed")
		}
	}); allocs != 0 {
		t.Errorf("nicTrack after first use allocated %v times, want 0", allocs)
	}
	other := trace.New(trace.Options{})
	f.SetTrace(other)
	if got := f.nicTrack(1); got == tk || got != other.Track(trace.GroupNIC, 1, "") {
		t.Error("a new tracer must not be served the old tracer's track")
	}
	f.SetTrace(nil)
	if f.nicTrack(1) != nil {
		t.Error("detached fabric must hand out nil tracks")
	}
}

// A traced transfer record pays for its wire span and three
// instruments, none of which may allocate once the handles are
// resolved: no per-call bounds slice, no registry lookups.
func TestRecordSteadyStateAllocs(t *testing.T) {
	_, f := twoNodes(t)
	tr := trace.New(trace.Options{})
	f.SetTrace(tr)
	if s := tr.Metrics().Snapshot(); len(s.Counters)+len(s.Histograms) != 0 {
		t.Fatal("SetTrace must not create instruments ahead of the first transfer")
	}
	id := uint64(0)
	rec := func() {
		id++
		f.record(Transfer{XferID: id, Src: 0, Dst: 1, Size: 4096, Start: vtime.Time(id), End: vtime.Time(id + 1)})
	}
	// Warm up past the track's ring growth and the truth log's first
	// doublings; what is left is one ring hand-over per RingSize records
	// and a log doubling, both far below one allocation per record.
	for i := 0; i < 4*trace.DefaultRingSize; i++ {
		rec()
	}
	if allocs := testing.AllocsPerRun(100, rec); allocs != 0 {
		t.Errorf("traced record allocated %v times per call, want 0", allocs)
	}
	m := tr.Metrics()
	if got := m.Counter("fabric.transfers").Value(); got != int64(id) {
		t.Errorf("fabric.transfers = %d, want %d", got, id)
	}
	if got := m.Counter("fabric.wire_bytes").Value(); got != 4096*int64(id) {
		t.Errorf("fabric.wire_bytes = %d, want %d", got, 4096*int64(id))
	}
	// A new tracer gets its own instruments, not the old tracer's.
	other := trace.New(trace.Options{})
	f.SetTrace(other)
	rec()
	if got := other.Metrics().Counter("fabric.transfers").Value(); got != 1 {
		t.Errorf("second tracer's fabric.transfers = %d, want 1", got)
	}
	if got := m.Counter("fabric.transfers").Value(); got != int64(id)-1 {
		t.Errorf("first tracer's fabric.transfers moved to %d after SetTrace", got)
	}
}

// ledgerPhases are the tags the ledger tests hand out in rotation; the
// empty one leaves its transfer untagged.
var ledgerPhases = []string{"eager", "pipelined-frag", "", "direct-read"}

// ledgerRun posts n tagged RDMA writes through a two-node fabric,
// configured by setup before the run, and returns the fabric.
func ledgerRun(t *testing.T, n int, setup func(f *Fabric)) *Fabric {
	t.Helper()
	sim, f := twoNodes(t)
	setup(f)
	nic := f.NIC(0)
	poster := sim.Spawn("post", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			id := f.NewXferID()
			f.TagXfer(id, ledgerPhases[i%len(ledgerPhases)])
			nic.RDMAWrite(p, 1, 64+i%7, id, nil)
			for !nic.Pending() || nic.PollCQ(p) == nil {
				p.Park("cq")
			}
		}
	})
	nic.SetNotify(poster.Unpark)
	sim.Run()
	return f
}

// wireSpans flattens a tracer's NIC wire spans into Transfers.
func wireSpans(tr *trace.Tracer) []Transfer {
	var out []Transfer
	for _, tk := range tr.Tracks() {
		for _, r := range tk.Recs() {
			if r.Cat == "wire" {
				out = append(out, Transfer{XferID: r.Args.ID, Src: NodeID(tk.ID()), Dst: NodeID(r.Args.Peer),
					Size: int(r.Args.Size), Start: r.Start, End: r.End(), Phase: r.Args.Phase})
			}
		}
	}
	return out
}

// What the fabric keeps per transfer follows who will read it: the log
// for Transfers (RetainTruth, on unless a cluster run turns it off),
// the phase tags for the log or a tracer's wire spans, and nothing at
// all for a run with neither — whose log and spans, had it kept them,
// would be the ones the other runs produce.
func TestLedgerFollowsItsReaders(t *testing.T) {
	const n = 10_000
	want := ledgerRun(t, n, func(*Fabric) {}).Transfers()
	if len(want) != n {
		t.Fatalf("a fabric left alone retained %d transfers, want %d", len(want), n)
	}
	for i, x := range want {
		if x.XferID != uint64(i+1) || x.Phase != ledgerPhases[i%len(ledgerPhases)] {
			t.Fatalf("transfer %d = %+v, want id %d tagged %q", i, x, i+1, ledgerPhases[i%len(ledgerPhases)])
		}
	}
	same := func(what string, got []Transfer) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d transfers, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: transfer %d = %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}

	// Nobody reading: no log, no tags, and no allocation per transfer.
	f := ledgerRun(t, n, func(f *Fabric) { f.RetainTruth(false) })
	if f.Transfers() != nil || f.truth != nil || f.phases != nil {
		t.Errorf("unread fabric holds %d log entries and %d tags after %d transfers, want none",
			len(f.truth), len(f.phases), n)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		id := f.NewXferID()
		f.TagXfer(id, "eager")
		f.record(Transfer{XferID: id, Src: 0, Dst: 1, Size: 64})
	}); allocs != 0 {
		t.Errorf("unread TagXfer+record allocated %v times per transfer, want 0", allocs)
	}

	// A tracer alone: the same wire spans, tags included, and still no log.
	tr := trace.New(trace.Options{})
	f = ledgerRun(t, n, func(f *Fabric) { f.RetainTruth(false); f.SetTrace(tr) })
	if f.Transfers() != nil {
		t.Errorf("traced fabric with RetainTruth(false) kept a log of %d", len(f.Transfers()))
	}
	same("tracer alone: wire spans", wireSpans(tr))

	// Both readers: log and spans, equal to each other and to the rest.
	tr = trace.New(trace.Options{})
	f = ledgerRun(t, n, func(f *Fabric) { f.SetTrace(tr) })
	same("traced and retained: log", f.Transfers())
	same("traced and retained: wire spans", wireSpans(tr))
}

// Tags live in a slice indexed by the ids NewXferID hands out, so an id
// it never issued is a caller bug, not a key.
func TestTagXferRejectsUnissuedID(t *testing.T) {
	_, f := twoNodes(t)
	f.TagXfer(0, "eager") // the "no transfer" id stays a no-op
	f.TagXfer(f.NewXferID(), "eager")
	defer func() {
		if recover() == nil {
			t.Error("TagXfer of an id NewXferID never issued did not panic")
		}
	}()
	f.TagXfer(1<<40, "eager")
}

// A warm 8 B write — post, completion and delivery events, poll —
// allocates nothing: both wire events come from the fabric's free list.
func TestPostCompleteSteadyStateAllocs(t *testing.T) {
	sim, f := twoNodes(t)
	nic := f.NIC(0)
	allocs := -1.0
	poster := sim.Spawn("post", func(p *vtime.Proc) {
		write := func() {
			nic.RDMAWrite(p, 1, 8, 0, nil)
			for !nic.Pending() || nic.PollCQ(p) == nil {
				p.Park("cq")
			}
		}
		for i := 0; i < 64; i++ {
			write()
		}
		allocs = testing.AllocsPerRun(1000, write)
	})
	nic.SetNotify(poster.Unpark)
	sim.Run()
	if allocs != 0 {
		t.Errorf("8 B RDMAWrite post -> CQE allocated %v times per write, want 0", allocs)
	}
}

// A warm reliable send — post, delivery, hardware ack, timer stop —
// allocates nothing: the wire events are pooled, the ack boxes no
// header, the retransmission timer's handler is the send's entry and a
// settled entry is reused. The duplicate-suppression ledgers gain one
// key per message; their doublings stay far below one allocation per
// send.
func TestReliableSendAckSteadyStateAllocs(t *testing.T) {
	sim, f := twoNodes(t)
	txNIC, rxNIC := f.NIC(0), f.NIC(1)
	allocs := -1.0
	var tx *Reliable
	sim.Spawn("pair", func(p *vtime.Proc) {
		tx = NewReliable(txNIC, ReliableParams{}, nil)
		rx := NewReliable(rxNIC, ReliableParams{}, nil)
		wake := func() { p.Unpark() }
		txNIC.SetNotify(wake)
		rxNIC.SetNotify(wake)
		drain := func(n *NIC, rl *Reliable) {
			for n.Pending() {
				if c := n.PollCQ(p); c != nil && !rl.TakeWR(c.WRID) {
					t.Fatalf("completion of an untracked request %d", c.WRID)
				}
				if pkt := n.PollInbox(p); pkt != nil {
					rl.Accept(pkt)
				}
			}
		}
		exchange := func() {
			tx.Send(p, 1, 8, 0, nil, "x", nil)
			for tx.Outstanding() > 0 {
				if !txNIC.Pending() && !rxNIC.Pending() {
					p.Park("ack")
				}
				drain(rxNIC, rx)
				drain(txNIC, tx)
			}
		}
		for i := 0; i < 64; i++ {
			exchange()
		}
		allocs = testing.AllocsPerRun(1000, exchange)
	})
	if end := sim.Run(); end > vtime.Time(20*time.Millisecond) {
		t.Errorf("run ended at %v: stopped timers stretched it", end)
	}
	if allocs != 0 {
		t.Errorf("reliable send -> ack -> timer stop allocated %v times per send, want 0", allocs)
	}
	if s := tx.Stats(); s.AcksReceived != 64+1001 || s.Retransmits != 0 {
		t.Errorf("stats = %+v, want %d acks and no retransmission", s, 64+1001)
	}
}
