package profile

import (
	"bytes"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
)

// workload is one traced run the conservation tests replay.
type workload struct {
	name string
	cfg  cluster.Config
	body func(r *mpi.Rank)
}

func exchange(pair string, size int, reps int, compute time.Duration) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < reps; i++ {
			r.PushRegion("exchange")
			switch {
			case pair == "isend-irecv":
				var q *mpi.Request
				if r.ID() == 0 {
					q = r.Isend(peer, 0, size)
				} else {
					q = r.Irecv(peer, 0)
				}
				r.Compute(compute)
				r.Wait(q)
			case r.ID() == 0: // isend-recv
				q := r.Isend(peer, 0, size)
				r.Compute(compute)
				r.Wait(q)
			default:
				r.Recv(peer, 0)
			}
			r.PopRegion()
			r.Compute(10 * time.Microsecond) // pacing outside the region
		}
	}
}

func workloads() []workload {
	mk := func(proto mpi.LongProtocol, hw bool, faults *fabric.FaultPlan) cluster.Config {
		return cluster.Config{
			Procs: 2,
			MPI: mpi.Config{
				Protocol:     proto,
				HWTimestamps: hw,
				Instrument:   &mpi.InstrumentConfig{},
			},
			Faults: faults,
		}
	}
	return []workload{
		{"eager-pipelined", mk(mpi.PipelinedRDMA, false, nil),
			exchange("isend-irecv", 10<<10, 40, 20*time.Microsecond)},
		{"rendezvous-pipelined", mk(mpi.PipelinedRDMA, false, nil),
			exchange("isend-recv", 1<<20, 10, 500*time.Microsecond)},
		{"rendezvous-direct", mk(mpi.DirectRDMARead, false, nil),
			exchange("isend-irecv", 1<<20, 10, 500*time.Microsecond)},
		{"direct-faulted", mk(mpi.DirectRDMARead, false,
			&fabric.FaultPlan{Seed: 7, Default: fabric.LinkFaults{DropRate: 0.1}}),
			exchange("isend-irecv", 64<<10, 20, 100*time.Microsecond)},
		{"hw-exact", mk(mpi.DirectRDMARead, true, nil),
			exchange("isend-irecv", 1<<20, 10, 500*time.Microsecond)},
	}
}

func runProfiled(t *testing.T, cfg cluster.Config, body func(r *mpi.Rank)) (*Profile, cluster.Result, *trace.Tracer) {
	t.Helper()
	tr := trace.New(trace.Options{})
	cfg.Trace = tr
	res := cluster.Run(cfg, body)
	in := FromTracer(tr, res.Calib, res.Reports)
	p, err := Analyze(in)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return p, res, tr
}

// checkConservation asserts the bound-gap conservation invariant: the
// profiler's per-site totals reproduce the instrumentation reports'
// measures exactly, the blamed time partitions the gap, and the
// critical path tiles the run's virtual wall time.
func checkConservation(t *testing.T, p *Profile, reports []*overlap.Report, duration time.Duration) {
	t.Helper()
	var want overlap.Measures
	for _, rep := range reports {
		if rep != nil {
			want.Add(rep.Total())
		}
	}
	if want.Count == 0 {
		t.Fatal("reports carry no transfers; workload broken")
	}
	if p.Totals.Transfers != want.Count {
		t.Errorf("transfers: profiled %d, reports %d", p.Totals.Transfers, want.Count)
	}
	if p.Totals.DataTransferTime != want.DataTransferTime {
		t.Errorf("data transfer time: profiled %v, reports %v",
			p.Totals.DataTransferTime, want.DataTransferTime)
	}
	if p.Totals.MinOverlapped != want.MinOverlapped || p.Totals.MaxOverlapped != want.MaxOverlapped {
		t.Errorf("bounds: profiled [%v,%v], reports [%v,%v]",
			p.Totals.MinOverlapped, p.Totals.MaxOverlapped,
			want.MinOverlapped, want.MaxOverlapped)
	}
	gap := want.MaxOverlapped - want.MinOverlapped
	if p.Totals.Gap != gap {
		t.Errorf("bound gap: profiled %v, reports %v", p.Totals.Gap, gap)
	}
	if got := p.Totals.Blame.Total(); got != gap {
		t.Errorf("blamed time %v does not partition the bound gap %v", got, gap)
	}
	var siteGap time.Duration
	var siteBlame time.Duration
	for _, s := range p.Sites {
		siteGap += s.Gap
		siteBlame += s.Blame.Total()
		if s.Blame.Total() != s.Gap {
			t.Errorf("site %s/%s: blame %v != gap %v", s.Region, s.Op, s.Blame.Total(), s.Gap)
		}
	}
	if siteGap != gap {
		t.Errorf("per-site gaps sum to %v, reports gap %v", siteGap, gap)
	}
	if p.Critical.Length != duration {
		t.Errorf("critical path length %v, run time %v", p.Critical.Length, duration)
	}
	var segSum time.Duration
	for _, s := range p.Critical.Segments {
		if s.End <= s.Start {
			t.Errorf("empty or inverted segment %+v", s)
		}
		segSum += s.End - s.Start
	}
	if segSum != duration {
		t.Errorf("segments sum to %v, run time %v", segSum, duration)
	}
}

// TestConservationMicro replays the microbenchmark-style workloads —
// eager, pipelined rendezvous, direct rendezvous, a faulted link and
// the hardware-timestamp mode — and checks the conservation invariant
// on each.
func TestConservationMicro(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			p, res, _ := runProfiled(t, w.cfg, w.body)
			checkConservation(t, p, res.Reports, res.Duration)
			if w.name == "direct-faulted" && p.Totals.Blame.FaultRetransmit == 0 {
				t.Error("faulted run attributed no fault-retransmit time")
			}
		})
	}
}

// TestConservationNAS checks the invariant on a real kernel: LU class
// S on four ranks, two iterations.
func TestConservationNAS(t *testing.T) {
	cfg := cluster.Config{
		Procs: 4,
		MPI: mpi.Config{
			Protocol:   mpi.DirectRDMARead,
			Instrument: &mpi.InstrumentConfig{},
		},
	}
	p, res, _ := runProfiled(t, cfg, func(r *mpi.Rank) {
		nas.Run(nas.LU, r, nas.Params{Class: nas.ClassS, MaxIters: 2})
	})
	checkConservation(t, p, res.Reports, res.Duration)
}

// TestChromeRoundTrip re-ingests an exported trace file and checks the
// profile it yields is identical to the live-tracer one.
func TestChromeRoundTrip(t *testing.T) {
	w := workloads()[0]
	p, res, tr := runProfiled(t, w.cfg, w.body)
	var file bytes.Buffer
	if err := tr.WriteChrome(&file); err != nil {
		t.Fatal(err)
	}
	// No RegionNames fix-up: the exported file must be self-describing
	// (region-push instants carry the name in detail).
	in, err := FromChromeJSON(&file, res.Calib)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := p.EncodeJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := p2.EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("re-ingested profile differs from live profile:\nlive: %s\nfile: %s", a.String(), b.String())
	}
}

// TestAnalyzeEmpty rejects inputs with no rank streams.
func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(Input{}); err == nil {
		t.Error("Analyze accepted an empty input")
	}
}

// TestWirePhaseFirstOccurrenceWins: a transfer id that is on the wire
// more than once (fragments, retransmissions) is classified by its
// first wire span. Giving every id a second span under another phase
// changes nothing when it comes after the original and moves the
// protocol blame to progress when it comes before.
func TestWirePhaseFirstOccurrenceWins(t *testing.T) {
	w := workloads()[1] // rendezvous-pipelined
	tr := trace.New(trace.Options{})
	w.cfg.Trace = tr
	res := cluster.Run(w.cfg, w.body)
	in := FromTracer(tr, res.Calib, res.Reports)
	base, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if base.Totals.Blame.Protocol == 0 {
		t.Fatal("workload attributes nothing to the protocol: the test needs one that does")
	}
	eager := make([]WireSpan, len(in.Wire))
	for i, ws := range in.Wire {
		ws.Phase = "eager"
		eager[i] = ws
	}
	orig := in.Wire

	in.Wire = append(append([]WireSpan{}, orig...), eager...)
	after, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if after.Totals.Blame != base.Totals.Blame {
		t.Errorf("a later wire span changed the blame: %+v, want %+v", after.Totals.Blame, base.Totals.Blame)
	}

	in.Wire = append(eager, orig...)
	before, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Totals.Blame
	want.Progress += want.Protocol
	want.Protocol = 0
	if before.Totals.Blame != want {
		t.Errorf("an earlier wire span did not decide the blame: %+v, want %+v", before.Totals.Blame, want)
	}
}
