package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"
	"unsafe"

	"ovlp/internal/vtime"
)

func us(n int) vtime.Time { return vtime.Time(time.Duration(n) * time.Microsecond) }

func TestTrackIdentity(t *testing.T) {
	tr := New(Options{})
	a := tr.Track(GroupHost, 0, "rank0")
	b := tr.Track(GroupHost, 1, "rank1")
	n := tr.Track(GroupNIC, 0, "nic0")
	if tr.Track(GroupHost, 0, "other") != a {
		t.Error("same (group,id) must return the same track")
	}
	if a == n {
		t.Error("same id in different groups must be distinct tracks")
	}
	got := tr.Tracks()
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != n {
		t.Errorf("creation order not preserved: %v", got)
	}
	if a.Group() != GroupHost || a.ID() != 0 || a.Name() != "rank0" {
		t.Errorf("track identity wrong: %v %d %q", a.Group(), a.ID(), a.Name())
	}
}

func TestRingSpill(t *testing.T) {
	tr := New(Options{RingSize: 4})
	tk := tr.Track(GroupHost, 0, "r")
	const n = 11
	for i := 0; i < n; i++ {
		tk.Instant("c", "e", us(i), Args{Peer: NoPeer, ID: uint64(i + 1)})
	}
	if tk.Spills() != 2 {
		t.Errorf("spills = %d, want 2 (ring of 4, 11 emissions)", tk.Spills())
	}
	recs := tk.Recs()
	tk.Recs()
	if tk.Spills() != 2 {
		t.Errorf("spills = %d after Recs, want 2: the end-of-run drain is not an overflow", tk.Spills())
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Start != us(i) || r.Args.ID != uint64(i+1) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
	// Recs drains; emitting again keeps appending in order.
	tk.Instant("c", "e", us(n), Args{Peer: NoPeer, ID: n + 1})
	if recs = tk.Recs(); len(recs) != n+1 || recs[n].Args.ID != n+1 {
		t.Fatalf("post-drain emission lost: %d records", len(recs))
	}
}

func TestSpanAndInstant(t *testing.T) {
	tr := New(Options{})
	tk := tr.Track(GroupNIC, 2, "nic2")
	tk.Span("wire", "xfer", us(10), us(30), Args{Peer: 1, Size: 4096, ID: 7})
	tk.Instant("fault", "drop", us(40), None)
	recs := tk.Recs()
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	sp := recs[0]
	if sp.Instant() || sp.Dur != 20*time.Microsecond || sp.End() != us(30) {
		t.Errorf("span wrong: %+v", sp)
	}
	if !recs[1].Instant() || recs[1].End() != us(40) {
		t.Errorf("instant wrong: %+v", recs[1])
	}
}

func TestNegativeSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("span ending before start must panic")
		}
	}()
	tr := New(Options{})
	tr.Track(GroupHost, 0, "r").Span("c", "bad", us(5), us(1), None)
}

func TestTinyRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RingSize 1 must panic")
		}
	}()
	New(Options{RingSize: 1})
}

func TestMetricsOnly(t *testing.T) {
	tr := New(Options{MetricsOnly: true})
	tk := tr.Track(GroupHost, 0, "r")
	tk.Span("c", "s", us(0), us(5), None)
	tk.Instant("c", "i", us(1), None)
	if len(tk.Recs()) != 0 {
		t.Error("MetricsOnly tracer must not retain records")
	}
	tr.Metrics().Counter("x").Inc()
	if got := tr.Metrics().Counter("x").Value(); got != 1 {
		t.Errorf("counter = %d, want 1", got)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Track(GroupHost, 0, "r") != nil {
		t.Error("nil tracer must return nil track")
	}
	if tr.Tracks() != nil || tr.Metrics() != nil || tr.KernelObserver() != nil {
		t.Error("nil tracer accessors must return nil")
	}
	var tk *Track
	tk.Span("c", "s", us(0), us(1), None) // must not panic
	tk.Instant("c", "i", us(0), None)
	if tk.Recs() != nil {
		t.Error("nil track must have no records")
	}
	tr.Metrics().Counter("x").Inc() // nil registry chain must not panic
	tr.Metrics().Gauge("g").Set(3)
	tr.Metrics().Histogram("h", nil).Observe(1)
	const empty = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n"
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil || b.String() != empty {
		t.Errorf("nil tracer WriteChrome = %q, %v; want the empty document", b.String(), err)
	}
	if got := string(tr.AppendChrome([]byte("x"))); got != "x"+empty {
		t.Errorf("nil tracer AppendChrome = %q", got)
	}
	if !json.Valid(b.Bytes()) {
		t.Error("nil tracer's document is not valid JSON")
	}
}

type recSink struct {
	tracks []string
	recs   []Rec
}

func (s *recSink) TraceRec(tk *Track, r Rec) {
	s.tracks = append(s.tracks, tk.Name())
	s.recs = append(s.recs, r)
}

func TestSinkObservesEveryRecord(t *testing.T) {
	tr := New(Options{RingSize: 4})
	s := &recSink{}
	tr.AddSink(s)
	tk := tr.Track(GroupHost, 0, "r0")
	nic := tr.Track(GroupNIC, 0, "nic0")
	tk.Span("kernel", "compute", us(0), us(5), None)
	nic.Instant("rel", "retransmit", us(2), Args{Peer: NoPeer, ID: 7})
	tk.Instant("overlap", "xfer-begin", us(3), Args{Peer: NoPeer, ID: 1})
	if len(s.recs) != 3 {
		t.Fatalf("sink saw %d records, want 3", len(s.recs))
	}
	want := []string{"r0", "nic0", "r0"}
	for i, name := range want {
		if s.tracks[i] != name {
			t.Errorf("record %d from track %q, want %q", i, s.tracks[i], name)
		}
	}
	if s.recs[0].Name != "compute" || s.recs[0].Dur != 5*time.Microsecond {
		t.Errorf("span record mangled: %+v", s.recs[0])
	}
	if s.recs[1].Args.ID != 7 {
		t.Errorf("instant args mangled: %+v", s.recs[1])
	}
}

func TestSinkSeesRecordsInMetricsOnlyMode(t *testing.T) {
	tr := New(Options{MetricsOnly: true})
	s := &recSink{}
	tr.AddSink(s)
	tk := tr.Track(GroupHost, 0, "r0")
	tk.Span("kernel", "compute", us(0), us(5), None)
	if len(s.recs) != 1 {
		t.Fatalf("sink saw %d records in MetricsOnly mode, want 1", len(s.recs))
	}
	if len(tk.Recs()) != 0 {
		t.Error("MetricsOnly tracer must still not retain records")
	}
}

func TestAddSinkNilSafe(t *testing.T) {
	var tr *Tracer
	tr.AddSink(&recSink{}) // nil tracer must ignore
	tr2 := New(Options{})
	tr2.AddSink(nil) // nil sink must be ignored
	tr2.Track(GroupHost, 0, "r").Instant("c", "i", us(0), None)
}

func TestSpillCountersInRegistry(t *testing.T) {
	tr := New(Options{RingSize: 4})
	tk := tr.Track(GroupHost, 0, "rank0")
	for i := 0; i < 11; i++ {
		tk.Instant("c", "e", us(i), None)
	}
	reg := tr.Metrics()
	if got := reg.Counter("trace.spills.hosts.rank0").Value(); got != 2 {
		t.Errorf("per-track spill counter = %d, want 2", got)
	}
	if got := reg.Counter("trace.spills").Value(); got != 2 {
		t.Errorf("total spill counter = %d, want 2", got)
	}
	if tk.Spills() != 2 {
		t.Errorf("Spills() = %d before Recs, want the counter's 2", tk.Spills())
	}
	// The end-of-run drain is not queue pressure and must not count,
	// however often it runs.
	for i := 0; i < 3; i++ {
		tk.Recs()
		if got := reg.Counter("trace.spills").Value(); got != 2 {
			t.Errorf("Recs drain bumped spill counter to %d", got)
		}
		if got := int64(tk.Spills()); got != reg.Counter("trace.spills.hosts.rank0").Value() {
			t.Errorf("Spills() = %d after %d Recs, counter says %d", got, i+1, reg.Counter("trace.spills.hosts.rank0").Value())
		}
	}
}

// TestSpillPointsPinned fixes where a 5 000-emission stream overflows a
// default-size ring, drained once mid-run the way a live export does:
// the counters sit inside golden-hashed metrics blocks, so the chunked
// store must overflow at exactly the emissions the copying one did.
func TestSpillPointsPinned(t *testing.T) {
	tr := New(Options{})
	tk := tr.Track(GroupHost, 0, "rank0")
	total := tr.Metrics().Counter("trace.spills")
	var at []int
	for i := 1; i <= 5000; i++ {
		before := total.Value()
		tk.Instant("c", "e", us(i), None)
		if total.Value() != before {
			at = append(at, i)
		}
		if i == 2500 {
			tk.Recs() // drains the ring: the next overflow is a full ring later
		}
	}
	want := []int{1025, 2049, 3525, 4549}
	if !slices.Equal(at, want) {
		t.Fatalf("overflowed at emissions %v, want %v", at, want)
	}
	if got := tr.Metrics().Counter("trace.spills.hosts.rank0").Value(); got != 4 || tk.Spills() != 4 {
		t.Errorf("per-track counter %d, Spills() %d, want 4 and 4", got, tk.Spills())
	}
	if recs := tk.Recs(); len(recs) != 5000 || recs[0].Start != us(1) || recs[4999].Start != us(5000) {
		t.Errorf("records lost or reordered across drains: %d", len(recs))
	}
}

func TestEmitSteadyStateAllocs(t *testing.T) {
	tr := New(Options{})
	tk := tr.Track(GroupHost, 0, "rank0")
	for i := 0; i <= DefaultRingSize; i++ { // grow the first ring and hand it over once
		tk.Instant("c", "warm", us(i), None)
	}
	at := us(0)
	emit := func() {
		at += 20
		tk.Span("mpi", "Send", at, at+10, Args{Peer: 1, Size: 1 << 10})
		tk.Instant("overlap", "xfer-begin", at, Args{Peer: NoPeer, ID: 1})
	}
	// 2×400 emissions fit the fresh ring: no hand-over, so no allocation.
	if n := testing.AllocsPerRun(400, emit); n != 0 {
		t.Errorf("Span+Instant between ring hand-overs: %v allocs, want 0", n)
	}
	// Across hand-overs the only allocation is the replacement ring.
	ring := func() {
		for i := 0; i < DefaultRingSize/2; i++ {
			emit()
		}
	}
	if n := testing.AllocsPerRun(64, ring); n > 1 {
		t.Errorf("%v allocs per RingSize emissions, want at most the one ring", n)
	}
}

// TestSmallTrackStaysSmall measures the track itself — the ring it
// holds — not a process-wide allocation delta: with rings recycled
// across tracers, what a track costs is what it keeps, and another
// test's garbage cannot move it.
func TestSmallTrackStaysSmall(t *testing.T) {
	tr := New(Options{})
	tk := tr.Track(GroupHost, 1, "rank1")
	for i := 0; i < 3; i++ {
		tk.Instant("kernel", "spawn", us(i), None)
	}
	if got := len(tk.ring) * int(unsafe.Sizeof(Rec{})); got >= 4<<10 || len(tk.chunks) != 0 {
		t.Errorf("a 3-record track on a default-size tracer holds a %d-byte ring and %d chunks, want < 4 KiB and none",
			got, len(tk.chunks))
	}
	if len(tk.Recs()) != 3 {
		t.Errorf("small track lost records: %d", len(tk.Recs()))
	}
}
