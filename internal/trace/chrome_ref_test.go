package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"
	"time"

	"ovlp/internal/vtime"
)

// referenceWriteChrome is the fmt/encoding/json exporter the hand-written
// encoder replaced, kept verbatim as the byte-for-byte reference the
// differential test and FuzzChromeEncoder compare against. It exports
// the tracer as Chrome trace-event JSON (the
// "JSON Object Format" of the trace-event spec), loadable in Perfetto
// and chrome://tracing. Each Group becomes a process, each Track a
// thread; spans are "X" complete events, instants "i" events, and the
// metrics snapshot rides along as a top-level "metrics" object (extra
// top-level keys are explicitly legal per the spec).
//
// The encoder is hand-written rather than encoding/json because
// byte-identical output is a contract here: field order is fixed,
// nothing iterates a map, and microsecond timestamps are formatted
// from integer nanoseconds (never through a float), so a fixed-seed
// run re-exports to the same bytes.
func referenceWriteChrome(t *Tracer, w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteByte('\n')
	}

	// Metadata: name each process once, then each thread, with a sort
	// index so Perfetto orders tracks by id rather than by first event.
	seenGroup := make(map[Group]bool)
	for _, tk := range t.Tracks() {
		if !seenGroup[tk.group] {
			seenGroup[tk.group] = true
			sep()
			fmt.Fprintf(&b, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`,
				int(tk.group), refQuote(tk.group.String()))
			sep()
			fmt.Fprintf(&b, `{"name":"process_sort_index","ph":"M","pid":%d,"args":{"sort_index":%d}}`,
				int(tk.group), int(tk.group))
		}
		sep()
		fmt.Fprintf(&b, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			int(tk.group), tk.id+1, refQuote(tk.name))
		sep()
		fmt.Fprintf(&b, `{"name":"thread_sort_index","ph":"M","pid":%d,"tid":%d,"args":{"sort_index":%d}}`,
			int(tk.group), tk.id+1, tk.id)
	}

	for _, tk := range t.Tracks() {
		for _, r := range tk.Recs() {
			sep()
			if r.Instant() {
				fmt.Fprintf(&b, `{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d`,
					refQuote(r.Name), refQuote(r.Cat), refUsec(r.Start), int(tk.group), tk.id+1)
			} else {
				fmt.Fprintf(&b, `{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d`,
					refQuote(r.Name), refQuote(r.Cat), refUsec(r.Start), refUsec(vtime.Time(r.Dur)), int(tk.group), tk.id+1)
			}
			refWriteArgs(&b, r.Args)
			b.WriteByte('}')
		}
	}

	b.WriteString("\n]")
	if snap := t.Metrics().Snapshot(); !snap.Empty() {
		b.WriteString(`,"metrics":`)
		refWriteSnapshot(snap, &b)
	}
	if t.opts.Generator != "" {
		b.WriteString(`,"generator":`)
		b.WriteString(refQuote(t.opts.Generator))
	}
	if d := t.domain; d != "" && d != "virtual" {
		// Only non-virtual domains are stamped: absence means virtual,
		// and virtual exports stay byte-identical (golden traces).
		b.WriteString(`,"clockDomain":`)
		b.WriteString(refQuote(d))
	}
	b.WriteString("}\n")
	_, err := w.Write(b.Bytes())
	return err
}

// refUsec renders a nanosecond virtual time as the spec's microsecond
// timestamp, as an exact decimal JSON number (never a float round-trip).
func refUsec(t vtime.Time) string {
	ns := int64(t)
	if ns < 0 {
		// Spans never start before t=0 in virtual time; guard anyway so a
		// bug yields a readable (still valid JSON) value.
		return fmt.Sprintf("-%d.%03d", -ns/1000, (-ns)%1000)
	}
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// refWriteArgs appends the record's non-absent args as `,"args":{...}`,
// in fixed field order; it writes nothing when every field is absent.
func refWriteArgs(b *bytes.Buffer, a Args) {
	any := false
	field := func(k, v string) {
		if any {
			b.WriteByte(',')
		} else {
			b.WriteString(`,"args":{`)
			any = true
		}
		b.WriteByte('"')
		b.WriteString(k)
		b.WriteString(`":`)
		b.WriteString(v)
	}
	if a.Peer >= 0 {
		field("peer", strconv.Itoa(a.Peer))
	}
	if a.Size > 0 {
		field("size", strconv.FormatInt(a.Size, 10))
	}
	if a.ID != 0 {
		field("id", strconv.FormatUint(a.ID, 10))
	}
	if a.Detail != "" {
		field("detail", refQuote(a.Detail))
	}
	if a.Phase != "" {
		field("phase", refQuote(a.Phase))
	}
	if any {
		b.WriteByte('}')
	}
}

// refWriteSnapshot encodes the snapshot with fixed field order.
func refWriteSnapshot(s *Snapshot, b *bytes.Buffer) {
	b.WriteString(`{"counters":[`)
	for i, c := range s.Counters {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `{"name":%s,"value":%d}`, refQuote(c.Name), c.Value)
	}
	b.WriteString(`],"gauges":[`)
	for i, g := range s.Gauges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `{"name":%s,"value":%d,"max":%d}`, refQuote(g.Name), g.Value, g.Max)
	}
	b.WriteString(`],"histograms":[`)
	for i, h := range s.Histograms {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `{"name":%s,"bounds":`, refQuote(h.Name))
		refWriteInts(b, h.Bounds)
		b.WriteString(`,"buckets":`)
		refWriteInts(b, h.Buckets)
		fmt.Fprintf(b, `,"count":%d,"sum":%d,"min":%d,"max":%d}`, h.Count, h.Sum, h.Min, h.Max)
	}
	b.WriteString(`]}`)
}

func refWriteInts(b *bytes.Buffer, vs []int64) {
	b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%d", v)
	}
	b.WriteByte(']')
}

// refQuote JSON-escapes a string. Trace names are ASCII identifiers in
// practice, but the exporter must never emit invalid JSON; Go string
// marshalling is deterministic for a given input.
func refQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// encodeBoth exports tr through the append encoder and the reference
// and fails unless the two agree byte for byte on valid JSON.
func encodeBoth(t *testing.T, tr *Tracer) []byte {
	t.Helper()
	var want bytes.Buffer
	if err := referenceWriteChrome(tr, &want); err != nil {
		t.Fatal(err)
	}
	got := chromeOf(tr)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("append encoder diverges from the reference\n got: %s\nwant: %s", got, want.Bytes())
	}
	if !json.Valid(got) {
		t.Fatalf("invalid JSON: %s", got)
	}
	return got
}

func TestChromeEncoderMatchesReference(t *testing.T) {
	strs := []string{
		"", "plain", `say "hi"`, `back\slash`, "line\nbreak\ttab\r", "nul\x00byte", "\x1f\x7f",
		"<script>&amp;</script>", "café", "bad\xffutf8", "sep  end", "日本語", "\b\f",
	}
	stamps := []int64{0, 7, 999, 1000, 1500, 123456789, -1, -1500, 1 << 53, 1<<53 + 1, 1<<63 - 1}

	t.Run("strings", func(t *testing.T) {
		for _, s := range strs {
			tr := New(Options{Generator: s})
			tr.SetClockDomain(s)
			tk := tr.Track(GroupHost, 0, s)
			tk.Instant(s, s, us(1), Args{Peer: NoPeer, Detail: s, Phase: s})
			tk.Span(s, s, us(1), us(2), Args{Peer: 3, Detail: s})
			tr.Metrics().Counter(s).Inc()
			tr.Metrics().Gauge(s).Set(-4)
			tr.Metrics().Histogram(s, []int64{-1, 10}).Observe(5)
			encodeBoth(t, tr)
		}
	})
	t.Run("stamps", func(t *testing.T) {
		tr := New(Options{})
		tk := tr.Track(GroupNIC, 41, "nic41")
		for _, at := range stamps {
			tk.Instant("c", "i", vtime.Time(at), None)
			for _, d := range stamps {
				if d > 0 {
					tk.emit(Rec{Cat: "c", Name: "s", Start: vtime.Time(at), Dur: time.Duration(d), Args: None})
				}
			}
		}
		encodeBoth(t, tr)
	})
	t.Run("args", func(t *testing.T) {
		tr := New(Options{})
		tk := tr.Track(GroupHost, 2, "rank2")
		for m := 0; m < 1<<5; m++ {
			a := None
			if m&1 != 0 {
				a.Peer = 0
			}
			if m&2 != 0 {
				a.Size = 1 << 40
			}
			if m&4 != 0 {
				a.ID = 1<<64 - 1
			}
			if m&8 != 0 {
				a.Detail = "d"
			}
			if m&16 != 0 {
				a.Phase = "eager"
			}
			tk.Instant("c", "i", us(m), a)
		}
		// Values that read as absent: negative peer and size, zero id.
		tk.Instant("c", "i", us(40), Args{Peer: -7, Size: -1})
		encodeBoth(t, tr)
	})
	t.Run("shapes", func(t *testing.T) {
		encodeBoth(t, New(Options{})) // no tracks
		virtual := New(Options{})
		virtual.SetClockDomain("virtual")
		encodeBoth(t, virtual) // virtual is not stamped
		stamped := New(Options{Generator: "g"})
		stamped.SetClockDomain("real")
		encodeBoth(t, stamped) // keys without events
		tr := New(Options{RingSize: 4})
		tr.Track(GroupNIC, 0, "nic0") // empty track, NIC group first
		tk := tr.Track(GroupHost, 0, "rank0")
		for i := 0; i < 11; i++ { // across ring hand-overs, with spill counters
			tk.Instant("c", "e", us(i), None)
		}
		encodeBoth(t, tr)
		encodeBoth(t, buildSample())
	})
}

// FuzzChromeEncoder drives one record, a track, the metrics block and
// the top-level keys with arbitrary strings and numbers and checks the
// append encoder against the reference — and the stream too, through
// WriteChrome's chunk and through a chunk of the fuzzer's size, so
// that the writes split the document at fuzzer-chosen offsets.
func FuzzChromeEncoder(f *testing.F) {
	f.Add("Isend", "mpi", "", "eager", int64(1500), int64(3000), 1, int64(1<<20), uint64(7), uint16(0))
	f.Add(`q"\`, "<&>", "nul\x00\n", "é\xff ", int64(-1500), int64(0), -1, int64(0), uint64(0), uint16(37))
	f.Add("", "", "", "", int64(1<<53+1), int64(1<<62), 0, int64(-5), uint64(1<<64-1), uint16(600))
	f.Fuzz(func(t *testing.T, name, cat, detail, phase string, start, dur int64, peer int, size int64, id uint64, chunk uint16) {
		if start == math.MinInt64 {
			// The reference negates the stamp, which overflows here and
			// prints "--9223372036854775.-808"; AppendUsec is pinned on
			// this value by TestUsecFormat instead.
			t.Skip()
		}
		if dur < 0 {
			dur = -(dur + 1) // emit rejects negative durations
		}
		tr := New(Options{Generator: detail})
		tr.SetClockDomain(phase)
		tk := tr.Track(GroupHost, peer, name)
		tk.emit(Rec{Cat: cat, Name: name, Start: vtime.Time(start), Dur: time.Duration(dur),
			Args: Args{Peer: peer, Size: size, ID: id, Detail: detail, Phase: phase}})
		tr.Metrics().Gauge(cat).Set(size)
		want := encodeBoth(t, tr)
		var whole, split bytes.Buffer
		if err := tr.WriteChrome(&whole); err != nil || !bytes.Equal(whole.Bytes(), want) {
			t.Fatalf("WriteChrome diverges from the reference (%v)\n got: %s\nwant: %s", err, whole.Bytes(), want)
		}
		if err := tr.writeChrome(&split, int(chunk)); err != nil || !bytes.Equal(split.Bytes(), want) {
			t.Fatalf("%d-byte chunks diverge from the reference (%v)\n got: %s\nwant: %s", chunk, err, split.Bytes(), want)
		}
	})
}
