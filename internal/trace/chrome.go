package trace

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
)

// WriteChrome exports the tracer as Chrome trace-event JSON (the
// "JSON Object Format" of the trace-event spec), loadable in Perfetto
// and chrome://tracing. Each Group becomes a process, each Track a
// thread; spans are "X" complete events, instants "i" events, and the
// metrics snapshot rides along as a top-level "metrics" object (extra
// top-level keys are explicitly legal per the spec). A nil tracer
// writes the empty document.
//
// The document streams through one chromeChunk-byte chunk, handed to w
// at a track or record that finds less than recRoom left, before the
// metrics block and at the end (a longer piece grows it).
// The first error w returns is returned, and nothing more is written.
func (t *Tracer) WriteChrome(w io.Writer) error { return t.writeChrome(w, chromeChunk) }

const chromeChunk, recRoom = 16 << 10, 512

// writeChrome is WriteChrome with a chunk of the given size.
//
// It is hand-written rather than encoding/json because byte-identical
// output is a contract here: field order is fixed, nothing iterates a
// map, and microsecond timestamps are formatted from integer
// nanoseconds (never through a float), so a fixed-seed run re-exports
// to the same bytes. It appends into the chunk because export is on
// every traced run's path: no reflection and no per-record allocation.
func (t *Tracer) writeChrome(w io.Writer, chunk int) (err error) {
	if g, ok := w.(interface{ Grow(int) }); ok {
		// A bytes.Buffer then allocates once: 112 bytes a record, where
		// the corpus and NAS traces come to 93-99.
		size := 256
		for _, tk := range t.Tracks() {
			size += 256 + 112*len(tk.Recs())
		}
		g.Grow(size)
	}
	dst := make([]byte, 0, chunk)
	flush := func(force bool) {
		if len(dst) < chunk-recRoom && !force {
			return
		}
		if err == nil {
			_, err = w.Write(dst)
		}
		dst = dst[:0]
	}
	tracks := t.Tracks()
	dst = append(dst, `{"displayTimeUnit":"ns","traceEvents":[`...)
	sep := "\n"

	// Metadata: name each process once, then each thread, with a sort
	// index so Perfetto orders tracks by id rather than by first event.
	seenGroup := make(map[Group]bool)
	for _, tk := range tracks {
		flush(false)
		if !seenGroup[tk.group] {
			seenGroup[tk.group] = true
			pid := int64(tk.group)
			dst = append(dst, sep...)
			dst = appendInt(dst, `{"name":"process_name","ph":"M","pid":`, pid)
			dst = appendStr(dst, `,"args":{"name":`, tk.group.String())
			dst = appendInt(dst, "}},\n"+`{"name":"process_sort_index","ph":"M","pid":`, pid)
			dst = appendInt(dst, `,"args":{"sort_index":`, pid)
			dst = append(dst, "}}"...)
			sep = ",\n"
		}
		dst = append(dst, sep...)
		dst = append(dst, `{"name":"thread_name","ph":"M"`...)
		dst = tk.appendPidTid(dst)
		dst = appendStr(dst, `,"args":{"name":`, tk.name)
		dst = append(dst, "}},\n"+`{"name":"thread_sort_index","ph":"M"`...)
		dst = tk.appendPidTid(dst)
		dst = appendInt(dst, `,"args":{"sort_index":`, int64(tk.id))
		dst = append(dst, "}}"...)
		sep = ",\n"
	}

	var tailBuf [48]byte
	for _, tk := range tracks {
		tail := tk.appendPidTid(tailBuf[:0]) // the same for every record of the track
		recs := tk.Recs()
		for i := range recs {
			flush(false)
			r := &recs[i]
			dst = appendStr(dst, ",\n"+`{"name":`, r.Name)
			dst = appendStr(dst, `,"cat":`, r.Cat)
			if r.Instant() {
				dst = append(dst, `,"ph":"i","s":"t","ts":`...)
				dst = AppendUsec(dst, int64(r.Start))
			} else {
				dst = append(dst, `,"ph":"X","ts":`...)
				dst = AppendUsec(dst, int64(r.Start))
				dst = append(dst, `,"dur":`...)
				dst = AppendUsec(dst, int64(r.Dur))
			}
			dst = append(dst, tail...)
			dst = appendArgs(dst, &r.Args)
			dst = append(dst, '}')
		}
	}

	dst = append(dst, "\n]"...)
	if snap := t.Metrics().Snapshot(); !snap.Empty() {
		flush(true)
		dst = append(dst, `,"metrics":`...)
		dst = snap.appendJSON(dst)
	}
	if t != nil && t.opts.Generator != "" {
		dst = appendStr(dst, `,"generator":`, t.opts.Generator)
	}
	if d := t.ClockDomain(); d != "" && d != "virtual" {
		// Only non-virtual domains are stamped: absence means virtual,
		// and virtual exports stay byte-identical (golden traces).
		dst = appendStr(dst, `,"clockDomain":`, d)
	}
	dst = append(dst, "}\n"...)
	flush(true)
	return err
}

// appendPidTid appends the `,"pid":P,"tid":T` pair that places an event
// on the track.
func (k *Track) appendPidTid(dst []byte) []byte {
	dst = appendInt(dst, `,"pid":`, int64(k.group))
	return appendInt(dst, `,"tid":`, int64(k.id)+1)
}

// appendInt appends key, which ends where the number goes, and v.
func appendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendStr appends key and s as a JSON string.
func appendStr(dst []byte, key, s string) []byte {
	return AppendQuote(append(dst, key...), s)
}

// AppendUsec appends a nanosecond time as the spec's microsecond
// timestamp, an exact decimal JSON number with three fractional digits
// (never a float round-trip). ParseUsec is its inverse.
func AppendUsec(dst []byte, ns int64) []byte {
	u := uint64(ns)
	if ns < 0 {
		// Spans never start before t=0 in virtual time; guard anyway so a
		// bug yields a readable (still valid JSON) value.
		dst = append(dst, '-')
		u = -u
	}
	dst = strconv.AppendUint(dst, u/1000, 10)
	f := u % 1000
	return append(dst, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// ParseUsec converts the spec's decimal-microsecond timestamp to
// integer nanoseconds without a float round trip, truncating past the
// third fractional digit (the exporter never emits more). Anything
// that is not a plain decimal parses as 0.
func ParseUsec(s string) int64 {
	if s == "" {
		return 0
	}
	neg := false
	if s[0] == '-' {
		neg, s = true, s[1:]
	}
	whole, frac, _ := strings.Cut(s, ".")
	var ns int64
	for i := 0; i < len(whole); i++ {
		if whole[i] < '0' || whole[i] > '9' {
			return 0
		}
		ns = ns*10 + int64(whole[i]-'0')
	}
	ns *= 1000
	scale := int64(100)
	for i := 0; i < len(frac) && i < 3; i++ {
		if frac[i] < '0' || frac[i] > '9' {
			return 0
		}
		ns += int64(frac[i]-'0') * scale
		scale /= 10
	}
	if neg {
		return -ns
	}
	return ns
}

// AppendQuote appends s as a JSON string, byte for byte what
// json.Marshal produces. Trace names are plain ASCII identifiers in
// practice and are copied straight through; anything json.Marshal
// would escape or replace (control bytes, quotes, backslashes, <, >, &,
// non-ASCII) is handed to it, so the exporter never emits invalid JSON.
func AppendQuote(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !quotePlain[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// quotePlain marks the bytes json.Marshal copies into a string
// unchanged and AppendQuote therefore may too: printable ASCII less the
// characters JSON or encoding/json's HTML-safe mode escapes.
var quotePlain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range []byte(`"\\<>&`) {
		t[c] = false
	}
	return t
}()

// appendArgs appends the record's non-absent args as `,"args":{...}`,
// in fixed field order; it appends nothing when every field is absent.
func appendArgs(dst []byte, a *Args) []byte {
	open := `,"args":{`
	if a.Peer >= 0 {
		dst = appendInt(append(dst, open...), `"peer":`, int64(a.Peer))
		open = ","
	}
	if a.Size > 0 {
		dst = appendInt(append(dst, open...), `"size":`, a.Size)
		open = ","
	}
	if a.ID != 0 {
		dst = strconv.AppendUint(append(append(dst, open...), `"id":`...), a.ID, 10)
		open = ","
	}
	if a.Detail != "" {
		dst = appendStr(append(dst, open...), `"detail":`, a.Detail)
		open = ","
	}
	if a.Phase != "" {
		dst = appendStr(append(dst, open...), `"phase":`, a.Phase)
		open = ","
	}
	if open == "," {
		dst = append(dst, '}')
	}
	return dst
}

// WriteJSON encodes the snapshot as the trace file's "metrics" block —
// exported so tools that merge trace files (ovlp tracecat) can re-emit
// a combined snapshot in the same deterministic encoding.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	_, err := w.Write(s.appendJSON(nil))
	return err
}

// appendJSON encodes the snapshot with fixed field order.
func (s *Snapshot) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"counters":[`...)
	for i, c := range s.Counters {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendStr(dst, `{"name":`, c.Name)
		dst = appendInt(dst, `,"value":`, c.Value)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"gauges":[`...)
	for i, g := range s.Gauges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendStr(dst, `{"name":`, g.Name)
		dst = appendInt(dst, `,"value":`, g.Value)
		dst = appendInt(dst, `,"max":`, g.Max)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"histograms":[`...)
	for i, h := range s.Histograms {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendStr(dst, `{"name":`, h.Name)
		dst = appendInts(dst, `,"bounds":`, h.Bounds)
		dst = appendInts(dst, `,"buckets":`, h.Buckets)
		dst = appendInt(dst, `,"count":`, h.Count)
		dst = appendInt(dst, `,"sum":`, h.Sum)
		dst = appendInt(dst, `,"min":`, h.Min)
		dst = appendInt(dst, `,"max":`, h.Max)
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}

// appendInts appends key and vs as a JSON array.
func appendInts(dst []byte, key string, vs []int64) []byte {
	dst = append(append(dst, key...), '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}
