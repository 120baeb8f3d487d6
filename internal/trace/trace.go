// Package trace is the deterministic structured-tracing and metrics
// subsystem spanning the whole simulated stack: every layer — kernel,
// fabric, reliability, communication libraries, overlap
// instrumentation — emits typed spans and instants into per-track
// rings, and the result exports to Chrome trace-event JSON (loadable
// in Perfetto) alongside a virtual-time metrics registry.
//
// Determinism is the design constraint everything else bends around:
// all time-stamps come from the virtual clock, tracks are kept in
// creation order, records in emission order, and the exporter encodes
// with a fixed field order — so a fixed-seed run produces a
// byte-identical trace file every time, and tests can assert on the
// bytes.
//
// The per-track ring mirrors the overlap package's event queue: a
// fixed-size hot buffer that, when full, is handed whole to the track's
// chunk list and replaced, so the steady-state emission path neither
// allocates nor copies. Rings outlive their tracer: Recs returns them
// to a process-wide free list once their records are flattened, Release
// does the same for the flattened slices, and the next run's tracks draw
// from both (see rings, flats). Under the simulator's
// coroutine discipline exactly one goroutine runs at a time, so the ring
// needs no locks; the same single-writer-per-track layout is what a
// lock-free ring gives an instrumented real system.
//
// Tracing overhead is itself measurable: emissions that originate
// inside an instrumented library are charged to the owning rank
// through the overlap monitor's existing Config.Charge path (see
// overlap.Instrument.ModelCost), so the paper's overhead study
// extends to the tracer.
package trace

import (
	"fmt"
	"math/bits"
	"time"

	"ovlp/internal/ringpool"
	"ovlp/internal/vtime"
)

// Group is the top-level container a track belongs to; the Chrome
// exporter renders each group as one "process".
type Group int

const (
	// GroupHost holds one track per simulated proc (ranks, progress
	// agents): kernel scheduling spans, library call spans, overlap
	// instants.
	GroupHost Group = 1
	// GroupNIC holds one track per node's NIC: ground-truth wire spans,
	// fault-injection instants, reliable-delivery instants.
	GroupNIC Group = 2
)

func (g Group) String() string {
	switch g {
	case GroupHost:
		return "hosts"
	case GroupNIC:
		return "nic"
	}
	return "invalid"
}

// Args are the optional typed tags of a record. Absent fields are not
// exported: Peer is emitted when >= 0 (pass NoPeer for none — the zero
// value would read as rank 0), Size when > 0, ID when != 0, Detail and
// Phase when non-empty.
type Args struct {
	Peer   int
	Size   int64
	ID     uint64
	Detail string
	// Phase tags a wire span with the protocol phase that produced the
	// transfer ("eager", "pipelined-frag0", "pipelined-frag",
	// "direct-read", "put", ...), so offline analysis can attribute
	// non-overlapped time to the protocol choice without replaying the
	// library state machines.
	Phase string
}

// NoPeer marks the Peer field absent.
const NoPeer = -1

// None is the empty argument set.
var None = Args{Peer: NoPeer}

// Rec is one trace record: a complete span when Dur > 0, an instant
// otherwise. Records are fixed size so the ring never allocates after
// construction.
type Rec struct {
	Cat   string
	Name  string
	Start vtime.Time
	Dur   time.Duration
	Args  Args
}

// Instant reports whether the record is an instant rather than a span.
func (r Rec) Instant() bool { return r.Dur == 0 }

// End returns the record's end time (== Start for instants).
func (r Rec) End() vtime.Time { return r.Start.Add(r.Dur) }

// DefaultRingSize is the default per-track hot-buffer capacity.
const DefaultRingSize = 1024

// Options parameterizes a Tracer.
type Options struct {
	// RingSize is the per-track hot-buffer capacity; 0 means
	// DefaultRingSize.
	RingSize int
	// MetricsOnly disables span/instant retention, leaving only the
	// metrics registry active — the cheap mode behind a bare -metrics
	// flag. Streaming sinks (AddSink) still observe every record, so
	// incremental analyzers run without any ring memory being spent on
	// events nobody will export.
	MetricsOnly bool
	// Generator, when set, is stamped into exported trace files as a
	// top-level "generator" key — the producing binary's build identity
	// (`ovlp -version`). Left empty it adds nothing, so byte-stable
	// golden traces are unaffected unless a caller opts in.
	Generator string
}

// Sink observes every record the moment it is emitted — a streaming
// tap on the trace, so incremental analyzers (internal/timeres) can
// consume the run live instead of re-parsing an exported file. Sinks
// run in simulation context under the coroutine discipline: exactly
// one emission at a time, records per track in emission order (which,
// because spans are logged at their end stamp, is non-decreasing end
// time per track).
type Sink interface {
	// TraceRec delivers one record from tk. The Rec is a value copy;
	// the sink must not retain pointers into the tracer.
	TraceRec(tk *Track, r Rec)
}

// Tracer owns the run's tracks and metrics registry. A nil *Tracer is
// valid and ignores all calls, so layers can be built with tracing
// unconditionally and run untraced at zero cost beyond a nil check.
type Tracer struct {
	opts   Options
	domain string // SetClockDomain's stamp
	tracks []*Track
	index  map[trackKey]*Track
	reg    *Registry
	spills *Counter // "trace.spills", bound on the first hand-over
	sinks  []Sink
}

type trackKey struct {
	group Group
	id    int
}

// New creates an empty tracer.
func New(opts Options) *Tracer {
	if opts.RingSize == 0 {
		opts.RingSize = DefaultRingSize
	}
	if opts.RingSize < 2 {
		panic("trace: ring size must be at least 2")
	}
	return &Tracer{
		opts:  opts,
		index: make(map[trackKey]*Track),
		reg:   NewRegistry(),
	}
}

// SetClockDomain stamps the clock the run's timestamps were read from
// ("virtual", "real"). An export carries a non-virtual domain as a
// top-level "clockDomain" key, so offline analysis knows the stamps are
// wall-clock measurements; no key means virtual. cluster.RunE calls it
// from the run's backend. A nil tracer ignores the call.
func (t *Tracer) SetClockDomain(d string) {
	if t == nil {
		return
	}
	t.domain = d
}

// ClockDomain returns the stamped clock domain; empty (or for a nil
// tracer) means virtual.
func (t *Tracer) ClockDomain() string {
	if t == nil {
		return ""
	}
	return t.domain
}

// Metrics returns the tracer's registry (nil for a nil tracer).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// AddSink attaches a streaming record tap. Multiple sinks are
// delivered in attachment order. Attach sinks before the traced run
// starts: records emitted earlier are not replayed. A nil tracer
// ignores the call.
func (t *Tracer) AddSink(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.sinks = append(t.sinks, s)
}

// Track returns the track for (group, id), creating it with the given
// name on first use. Creation order is preserved for export, so two
// identical runs produce identically ordered files.
func (t *Tracer) Track(group Group, id int, name string) *Track {
	if t == nil {
		return nil
	}
	k := trackKey{group, id}
	if tk, ok := t.index[k]; ok {
		return tk
	}
	tk := &Track{t: t, group: group, id: id, name: name}
	t.index[k] = tk
	t.tracks = append(t.tracks, tk)
	return tk
}

// Tracks returns every track in creation order.
func (t *Tracer) Tracks() []*Track {
	if t == nil {
		return nil
	}
	return t.tracks
}

// Track is one timeline of records: a simulated proc (GroupHost) or a
// NIC (GroupNIC). All emission methods must be called from simulation
// context; the coroutine discipline makes them single-writer.
type Track struct {
	t     *Tracer
	group Group
	id    int
	name  string

	// ring is the hot buffer and n its occupancy. The first ring starts
	// at firstRing records and doubles up to Options.RingSize, so a
	// track that sees a handful of records never holds a full ring.
	ring []Rec
	n    int
	// chunks holds the full rings emit handed over since the last Recs,
	// flat everything emitted before it: the slice that Recs returned.
	chunks   [][]Rec
	flat     []Rec
	spills   int
	spillCtr *Counter // lazily bound "trace.spills.<group>.<name>" counter
}

// firstRing is the capacity a track's first ring starts at.
const firstRing = 8

// rings recycles a track's rings from one tracer to the next. A ring
// enters where it becomes garbage anyway — full has copied it into a
// larger one, or Recs has copied its records out — and full draws every
// ring it needs from it, the small first rings included (growing to
// RingSize costs a busy track as many records again). Rings are not
// cleared: a track reads only ring[:n] and whole handed-over rings,
// every record of which it wrote itself, so the stale records past n
// are never seen. What a listed ring still pins is the strings of its
// last run's records, bounded with the list (ringpool.MaxBytes).
var rings ringpool.List[Rec]

// flats recycles the slices Recs flattens into, which only Release
// lists: a flat is its caller's until the tracer's owner says nobody
// holds it. Like a ring a flat is not cleared — Recs overwrites all it
// returns. Flats are listed by capacity, and flatClass is what lets runs
// of different lengths meet on one.
var flats ringpool.List[Rec]

// flatClass rounds a flat's length up to its size class: 4, 5, 6 or 7
// times a power of two, four classes an octave. A tracer nobody releases
// (the CLIs, tests) so over-allocates by less than a quarter, where
// powers of two would charge it up to double, and a sweep's runs still
// land on few enough classes to find each other's flats.
func flatClass(n int) int {
	if n <= 8 {
		return n
	}
	shift := bits.Len(uint(n-1)) - 3 // leaves the top three bits: 4..7
	return ((n-1)>>shift + 1) << shift
}

// Group returns the track's group.
func (k *Track) Group() Group { return k.group }

// ID returns the track's id within its group (proc id or node id).
func (k *Track) ID() int { return k.id }

// Name returns the track's display name.
func (k *Track) Name() string { return k.name }

// Spills returns how many times an emission found the hot ring full at
// RingSize and handed it to the chunk list — the tracer's own
// queue-pressure diagnostic, equal to the track's
// "trace.spills.<group>.<name>" counter. Growing the first ring and the
// end-of-run drain in Recs are not overflows and do not count.
func (k *Track) Spills() int { return k.spills }

// Span records a complete span [start, end). A nil track ignores the
// call.
func (k *Track) Span(cat, name string, start, end vtime.Time, a Args) {
	if k == nil {
		return
	}
	k.emit(Rec{Cat: cat, Name: name, Start: start, Dur: end.Sub(start), Args: a})
}

// Instant records a point event at ts. A nil track ignores the call.
func (k *Track) Instant(cat, name string, ts vtime.Time, a Args) {
	if k == nil {
		return
	}
	k.emit(Rec{Cat: cat, Name: name, Start: ts, Args: a})
}

func (k *Track) emit(r Rec) {
	if r.Dur < 0 {
		panic("trace: span ends before it starts")
	}
	for _, s := range k.t.sinks {
		s.TraceRec(k, r)
	}
	if k.t.opts.MetricsOnly {
		return
	}
	if k.n == len(k.ring) {
		k.full()
	}
	k.ring[k.n] = r
	k.n++
}

// full makes room in a full hot ring. While the first ring is still
// below RingSize it doubles; at RingSize the ring is handed to the
// chunk list as it is and replaced — no record is copied — and the
// overflow is surfaced in the metrics registry (per track and in
// total), so an exported trace carries its own queue-pressure diagnosis
// and offline tools can warn that steady-state emission allocated.
// Every ring comes from the free list, whichever step asks: were only
// the hand-over to draw from it, each busy track's doubling would mint a
// RingSize ring per run that the list then only ever gains.
func (k *Track) full() {
	size := k.t.opts.RingSize
	if len(k.ring) < size {
		grown := rings.Get(min(size, max(firstRing, 2*len(k.ring))))
		copy(grown, k.ring)
		rings.Put(k.ring)
		k.ring = grown
		return
	}
	k.chunks = append(k.chunks, k.ring)
	k.ring = rings.Get(size)
	k.n = 0
	k.spills++
	if k.spillCtr == nil {
		k.spillCtr = k.t.reg.Counter(fmt.Sprintf("trace.spills.%s.%s", k.group, k.name))
	}
	k.spillCtr.Inc()
	if k.t.spills == nil {
		k.t.spills = k.t.reg.Counter("trace.spills")
	}
	k.t.spills.Inc()
}

// Recs returns every record in emission order, draining the hot ring
// first. Intended for export and tests after the run: it flattens the
// chunk list into one slice (drawn from flats, so its capacity is the
// length's size class), which a repeated call returns as is until the
// track emits again. The rings it copied from go to the free list — the
// hot ring too, so a track that emits after a drain starts again from a
// small ring; the slice it returns is the caller's until the tracer is
// Released.
func (k *Track) Recs() []Rec {
	if k == nil {
		return nil
	}
	if k.n == 0 && len(k.chunks) == 0 {
		return k.flat
	}
	total := len(k.flat) + k.n
	for _, c := range k.chunks {
		total += len(c)
	}
	flat := append(flats.Get(flatClass(total))[:0], k.flat...)
	for i, c := range k.chunks {
		flat = append(flat, c...)
		k.chunks[i] = nil
		rings.Put(c)
	}
	flat = append(flat, k.ring[:k.n]...)
	rings.Put(k.ring)
	k.ring, k.chunks, k.flat, k.n = nil, k.chunks[:0], flat, 0
	return flat
}

// Release hands everything the tracer's tracks retain — hot rings,
// handed-over chunks and the slices Recs returned — to the free lists
// and leaves the tracer empty: its tracks keep their names and ids, Recs
// returns nil and an export carries metadata and metrics only. Whoever
// owns the tracer calls it once nobody holds a slice Recs returned (a
// copied Rec, its strings included, is fine to keep); the next run's
// Recs then copies into that memory instead of a zeroed allocation.
// Optional: an unreleased tracer is ordinary garbage. A nil tracer
// ignores the call.
func (t *Tracer) Release() {
	if t == nil {
		return
	}
	for _, k := range t.tracks {
		for _, c := range k.chunks {
			rings.Put(c)
		}
		rings.Put(k.ring)
		flats.Put(k.flat[:cap(k.flat)])
		k.ring, k.chunks, k.flat, k.n = nil, nil, nil, 0
	}
}
