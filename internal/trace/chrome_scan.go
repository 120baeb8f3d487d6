package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"ovlp/internal/vtime"
)

// ChromeEvent is one element of a trace file's traceEvents array as
// ScanChrome decoded it. Ts, Dur and Args alias the scanned document
// (or, for a quoted stamp with escapes, a decoded copy): they stay
// valid as long as the caller keeps the data, so a copy of the struct
// may be retained after the callback returns.
type ChromeEvent struct {
	Name, Cat, Ph, S string
	// Ts and Dur are the number literals as written; ParseUsec converts
	// them. Empty means the key was absent.
	Ts, Dur  []byte
	Pid, Tid int
	// Args is the args value as written, whatever its type; nil means
	// the key was absent.
	Args []byte

	args     Args   // Args decoded: the exporter's typed tags
	metaName []byte // what is between the quotes of args.name, escapes not yet decoded
}

// Rec converts a span ("X") or instant ("i") event back into the
// record WriteChrome encoded. An args object whose known field has
// the wrong JSON type or range decodes as None rather than failing the
// file.
func (e *ChromeEvent) Rec() Rec {
	r := Rec{Cat: e.Cat, Name: e.Name, Start: vtime.Time(ParseUsec(string(e.Ts))), Args: e.args}
	if e.Ph == "X" {
		r.Dur = time.Duration(ParseUsec(string(e.Dur)))
	}
	return r
}

// MetaName returns args.name, which is how metadata ("M") events carry
// the process or thread name; "" when absent or not a string.
func (e *ChromeEvent) MetaName() string {
	for _, c := range e.metaName {
		if !strPlain[c] {
			var sc chromeScanner
			return string(sc.unquote(e.metaName))
		}
	}
	return string(e.metaName)
}

// ChromeDoc is what a trace file holds beside its events.
type ChromeDoc struct {
	// HasEvents reports whether a traceEvents array was present; a
	// document without one is some other JSON, not a trace.
	HasEvents bool
	// Metrics is the "metrics" value as written (a Snapshot in exporter
	// files), aliasing the scanned data; nil when absent.
	Metrics []byte
	// ClockDomain is the "clockDomain" stamp; "" means virtual.
	ClockDomain string
}

// ErrDuplicateTraceEvents rejects a document with a second top-level
// traceEvents key.
var ErrDuplicateTraceEvents = errors.New("duplicate traceEvents array")

const (
	// maxChromeDepth is the nesting encoding/json accepts.
	maxChromeDepth = 10000
	// internCap bounds the intern table: a run's vocabulary of names,
	// categories, phases and details is a few dozen strings, and past
	// the cap a hostile file's distinct strings are simply allocated.
	internCap = 1024
)

// ScanChrome is WriteChrome's inverse: it walks a Chrome trace-event
// document once, validating every byte as encoding/json would, and
// calls fn for each traceEvents element in order. The *ChromeEvent is
// reused between calls. An error from fn stops the scan and is
// returned as is.
//
// The decoder is hand-written for the reason the encoder is: ingest is
// on every offline tool's path, and the generic route (reflection into
// a struct, json.Number, a RawMessage copy and a second Unmarshal per
// record) allocated seven times per record. Here strings of the small
// vocabulary are interned, stamps and args stay slices of the input,
// and nothing is allocated per record.
//
// What it accepts, and how fields bind, follows encoding/json so files
// other tools re-marshalled keep loading: keys match exactly or else
// case-insensitively, the last duplicate wins, null leaves a field
// unset (a null element is an event with every field zero), ts and dur
// may be quoted number literals, and invalid UTF-8 in a string decodes
// to U+FFFD. A known field of the wrong JSON type, a pid or tid that is
// not an integer, a top-level value that is not an object and anything
// json.Valid rejects fail the document; only "s" and the contents of
// args are lenient (see Rec). The one narrowing is
// ErrDuplicateTraceEvents, where encoding/json would decode the second
// array over the first one's elements.
func ScanChrome(data []byte, fn func(*ChromeEvent) error) (ChromeDoc, error) {
	sc := chromeScanner{data: data, intern: make(map[string]string)}
	var doc ChromeDoc
	if err := sc.document(&doc, fn); err != nil {
		return ChromeDoc{}, err
	}
	return doc, nil
}

// chromeScanner is the decoder's state: a cursor over the document and
// the intern table. Between tokens pos rests on the first byte of the
// next one.
type chromeScanner struct {
	data   []byte
	pos    int
	intern map[string]string
	buf    []byte // the last unquoted string
}

func (sc *chromeScanner) syntax(what string) error {
	if sc.pos >= len(sc.data) {
		return fmt.Errorf("unexpected end of input, want %s", what)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", sc.data[sc.pos], sc.pos, what)
}

func (sc *chromeScanner) mismatch(field, want string) error {
	return fmt.Errorf("%q near offset %d is not %s", field, sc.pos, want)
}

// ws skips whitespace and returns the byte it stops on, 0 at the end.
func (sc *chromeScanner) ws() byte {
	d, i := sc.data, sc.pos
	for i < len(d) && (d[i] == ' ' || d[i] == '\n' || d[i] == '\t' || d[i] == '\r') {
		i++
	}
	sc.pos = i
	if i == len(d) {
		return 0
	}
	return d[i]
}

func (sc *chromeScanner) peek() byte {
	if sc.pos == len(sc.data) {
		return 0
	}
	return sc.data[sc.pos]
}

// member steps to the next member of the object being read — first is
// true straight after its '{' — and returns the decoded key with pos on
// the member's value, or done after consuming the closing brace. The
// key is valid until the next string is unquoted.
func (sc *chromeScanner) member(first bool) (key []byte, done bool, err error) {
	c := sc.ws()
	switch {
	case c == '}':
		sc.pos++
		return nil, true, nil
	case first:
	case c == ',':
		sc.pos++
		c = sc.ws()
	default:
		return nil, false, sc.syntax("',' or '}'")
	}
	if c != '"' {
		return nil, false, sc.syntax("an object key")
	}
	key, plain, err := sc.str()
	if err != nil {
		return nil, false, err
	}
	if !plain {
		key = sc.unquote(key)
	}
	if sc.ws() != ':' {
		return nil, false, sc.syntax("':'")
	}
	sc.pos++
	sc.ws()
	return key, false, nil
}

// element is member for arrays: it leaves pos on the next element.
func (sc *chromeScanner) element(first bool) (done bool, err error) {
	c := sc.ws()
	switch {
	case c == ']':
		sc.pos++
		return true, nil
	case first:
	case c == ',':
		sc.pos++
		sc.ws()
	default:
		return false, sc.syntax("',' or ']'")
	}
	return false, nil
}

// strPlain marks the bytes a string literal holds as themselves:
// printable ASCII but for the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	t['"'], t['\\'] = false, false
	return t
}()

// str scans the string literal at pos and returns what is between its
// quotes. plain reports that those bytes are the string; otherwise it
// holds an escape or a byte past ASCII and unquote decodes it.
func (sc *chromeScanner) str() (raw []byte, plain bool, err error) {
	d := sc.data
	start := sc.pos + 1
	i := start
	plain = true
	for {
		for i < len(d) && strPlain[d[i]] {
			i++
		}
		if i == len(d) {
			sc.pos = i
			return nil, false, sc.syntax("a closing quote")
		}
		switch c := d[i]; {
		case c == '"':
			sc.pos = i + 1
			return d[start:i], plain, nil
		case c == '\\':
			n := 2 // the escape's length
			if i+1 < len(d) && d[i+1] == 'u' {
				n = 6
				if i+n > len(d) || !isHex4(d[i+2:i+6]) {
					sc.pos = i
					return nil, false, sc.syntax(`four hex digits after \u`)
				}
			} else if i+1 == len(d) || strings.IndexByte(`"\/bfnrt`, d[i+1]) < 0 {
				sc.pos = i + 1
				return nil, false, sc.syntax("an escape character")
			}
			i += n
		case c < 0x20:
			sc.pos = i
			return nil, false, sc.syntax("no control character in a string")
		default: // past ASCII
			i++
		}
		plain = false
	}
}

func isHex4(b []byte) bool {
	for _, c := range b[:4] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// hex4 reads the XXXX of a \uXXXX escape str validated, or -1 when b
// does not start with one.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' || !isHex4(b[2:]) {
		return -1
	}
	n, _ := strconv.ParseUint(string(b[2:6]), 16, 32)
	return rune(n)
}

// unquote decodes the content of a string literal str accepted, the way
// encoding/json does: escapes replaced, a valid surrogate pair joined, a
// lone surrogate and each byte of invalid UTF-8 turned into U+FFFD. The
// result is sc.buf, overwritten by the next call.
func (sc *chromeScanner) unquote(raw []byte) []byte {
	b := sc.buf[:0]
	for r := 0; r < len(raw); {
		switch c := raw[r]; {
		case c == '\\' && raw[r+1] == 'u':
			rr := hex4(raw[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				if dec := utf16.DecodeRune(rr, hex4(raw[r:])); dec != unicode.ReplacementChar {
					r += 6
					b = utf8.AppendRune(b, dec)
					break
				}
				rr = unicode.ReplacementChar
			}
			b = utf8.AppendRune(b, rr)
		case c == '\\':
			c = raw[r+1]
			if i := strings.IndexByte("bfnrt", c); i >= 0 {
				c = "\b\f\n\r\t"[i]
			}
			b = append(b, c)
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	sc.buf = b
	return b
}

// text returns the string of a literal str scanned, from the intern
// table when it is there.
func (sc *chromeScanner) text(raw []byte, plain bool) string {
	if !plain {
		raw = sc.unquote(raw)
	}
	if s, ok := sc.intern[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if len(sc.intern) < internCap {
		sc.intern[s] = s
	}
	return s
}

// numberEnd returns the end of the JSON number literal at d[i:], or -1
// when there is none.
func numberEnd(d []byte, i int) int {
	digits := func() bool {
		start := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if !digits() {
		return -1
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			return -1
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}

// num scans the number literal at pos.
func (sc *chromeScanner) num() ([]byte, error) {
	end := numberEnd(sc.data, sc.pos)
	if end < 0 {
		return nil, sc.syntax("a number")
	}
	lit := sc.data[sc.pos:end]
	sc.pos = end
	return lit, nil
}

// lit scans the literal word (true, false, null) at pos.
func (sc *chromeScanner) lit(word string) error {
	if !bytes.HasPrefix(sc.data[sc.pos:], []byte(word)) {
		return sc.syntax("a value")
	}
	sc.pos += len(word)
	return nil
}

// skip validates and steps over the value at pos; depth counts the
// arrays and objects open around it.
func (sc *chromeScanner) skip(depth int) error {
	switch c := sc.peek(); {
	case c == '"':
		_, _, err := sc.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := sc.num()
		return err
	case c == 't':
		return sc.lit("true")
	case c == 'f':
		return sc.lit("false")
	case c == 'n':
		return sc.lit("null")
	case c != '{' && c != '[':
		return sc.syntax("a value")
	case depth >= maxChromeDepth:
		return fmt.Errorf("nesting deeper than %d at offset %d", maxChromeDepth, sc.pos)
	}
	object := sc.data[sc.pos] == '{'
	sc.pos++
	for first := true; ; first = false {
		var done bool
		var err error
		if object {
			_, done, err = sc.member(first)
		} else {
			done, err = sc.element(first)
		}
		if err != nil || done {
			return err
		}
		if err := sc.skip(depth + 1); err != nil {
			return err
		}
	}
}

// valKind is how a typed field's value turned out.
type valKind uint8

const (
	valSet   valKind = iota // the wanted type: the field takes it
	valNull                 // null: the field keeps what it had
	valOther                // some other (valid, skipped) value
)

// strVal reads the value of a string field.
func (sc *chromeScanner) strVal(depth int) (string, valKind, error) {
	switch sc.peek() {
	case '"':
		raw, plain, err := sc.str()
		if err != nil {
			return "", valOther, err
		}
		return sc.text(raw, plain), valSet, nil
	case 'n':
		return "", valNull, sc.lit("null")
	}
	return "", valOther, sc.skip(depth)
}

// intVal reads the value of an integer field as magnitude and sign; a
// number with a fraction or an exponent is valOther, as is one past
// uint64.
func (sc *chromeScanner) intVal(depth int) (mag uint64, neg bool, k valKind, err error) {
	switch c := sc.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := sc.num()
		if err != nil {
			return 0, false, valOther, err
		}
		if neg = lit[0] == '-'; neg {
			lit = lit[1:]
		}
		for _, c := range lit {
			d := uint64(c - '0')
			if d > 9 || mag > (math.MaxUint64-d)/10 {
				return 0, false, valOther, nil
			}
			mag = mag*10 + d
		}
		return mag, neg, valSet, nil
	case c == 'n':
		return 0, false, valNull, sc.lit("null")
	}
	return 0, false, valOther, sc.skip(depth)
}

// signedVal is intVal for a field of bits width.
func (sc *chromeScanner) signedVal(depth, bits int) (int64, valKind, error) {
	mag, neg, k, err := sc.intVal(depth)
	switch limit := uint64(1) << (bits - 1); {
	case k != valSet:
		return 0, k, err
	case neg && mag <= limit:
		return -int64(mag), valSet, nil
	case !neg && mag < limit:
		return int64(mag), valSet, nil
	}
	return 0, valOther, nil
}

// Field tables: the keys the decoder binds, looked up exactly and only
// then case-insensitively, so exporter-written files never fold.
type keyTable []struct {
	name string
	id   int
}

const (
	kOther = iota
	kEvents
	kMetrics
	kClockDomain
	kName
	kCat
	kPh
	kS
	kTs
	kDur
	kPid
	kTid
	kArgs
	kPeer
	kSize
	kID
	kDetail
	kPhase
)

var (
	docKeys   = keyTable{{"traceEvents", kEvents}, {"metrics", kMetrics}, {"clockDomain", kClockDomain}}
	eventKeys = keyTable{{"name", kName}, {"cat", kCat}, {"ph", kPh}, {"ts", kTs}, {"dur", kDur},
		{"pid", kPid}, {"tid", kTid}, {"args", kArgs}, {"s", kS}}
	argsKeys = keyTable{{"peer", kPeer}, {"size", kSize}, {"id", kID}, {"detail", kDetail},
		{"phase", kPhase}, {"name", kName}}
)

func (t keyTable) lookup(key []byte) int {
	for _, k := range t {
		if string(key) == k.name {
			return k.id
		}
	}
	for _, k := range t {
		if bytes.EqualFold(key, []byte(k.name)) {
			return k.id
		}
	}
	return kOther
}

func (sc *chromeScanner) document(doc *ChromeDoc, fn func(*ChromeEvent) error) error {
	switch sc.ws() {
	case '{':
		sc.pos++
	case 'n': // a null document is an empty one
		if err := sc.lit("null"); err != nil {
			return err
		}
		return sc.end()
	default:
		return sc.syntax("an object")
	}
	for first := true; ; first = false {
		key, done, err := sc.member(first)
		if err != nil {
			return err
		}
		if done {
			return sc.end()
		}
		switch docKeys.lookup(key) {
		case kEvents:
			if doc.HasEvents {
				return ErrDuplicateTraceEvents
			}
			switch sc.peek() {
			case '[':
				doc.HasEvents = true
				err = sc.events(fn)
			case 'n':
				err = sc.lit("null")
			default:
				err = sc.mismatch("traceEvents", "an array")
			}
		case kMetrics:
			start := sc.pos
			err = sc.skip(1)
			doc.Metrics = sc.data[start:sc.pos]
		case kClockDomain:
			err = sc.strField(&doc.ClockDomain, "clockDomain", 1)
		default:
			err = sc.skip(1)
		}
		if err != nil {
			return err
		}
	}
}

// end checks that nothing but whitespace follows the document.
func (sc *chromeScanner) end() error {
	if sc.ws(); sc.pos < len(sc.data) {
		return sc.syntax("the end of the document")
	}
	return nil
}

func (sc *chromeScanner) events(fn func(*ChromeEvent) error) error {
	sc.pos++
	var e ChromeEvent
	for first := true; ; first = false {
		done, err := sc.element(first)
		if err != nil || done {
			return err
		}
		if err := sc.event(&e); err != nil {
			return err
		}
		if err := fn(&e); err != nil {
			return err
		}
	}
}

// Depths of the document's fixed levels, for skip.
const (
	eventDepth = 3 // document, traceEvents, the event
	argsDepth  = 4
)

func (sc *chromeScanner) event(e *ChromeEvent) error {
	*e = ChromeEvent{args: None}
	switch sc.peek() {
	case '{':
		sc.pos++
	case 'n':
		return sc.lit("null")
	default:
		return sc.mismatch("traceEvents element", "an object")
	}
	for first := true; ; first = false {
		key, done, err := sc.member(first)
		if err != nil || done {
			return err
		}
		switch eventKeys.lookup(key) {
		case kName:
			err = sc.strField(&e.Name, "name", eventDepth)
		case kCat:
			err = sc.strField(&e.Cat, "cat", eventDepth)
		case kPh:
			err = sc.strField(&e.Ph, "ph", eventDepth)
		case kS: // a display hint, never interpreted: anything but a string is passed over
			var s string
			var k valKind
			if s, k, err = sc.strVal(eventDepth); k == valSet {
				e.S = s
			}
		case kTs:
			err = sc.usecField(&e.Ts, "ts")
		case kDur:
			err = sc.usecField(&e.Dur, "dur")
		case kPid:
			err = sc.intField(&e.Pid, "pid")
		case kTid:
			err = sc.intField(&e.Tid, "tid")
		case kArgs:
			err = sc.argsField(e)
		default:
			err = sc.skip(eventDepth)
		}
		if err != nil {
			return err
		}
	}
}

func (sc *chromeScanner) strField(dst *string, field string, depth int) error {
	s, k, err := sc.strVal(depth)
	switch {
	case err != nil:
		return err
	case k == valOther:
		return sc.mismatch(field, "a string")
	case k == valSet:
		*dst = s
	}
	return nil
}

func (sc *chromeScanner) intField(dst *int, field string) error {
	n, k, err := sc.signedVal(eventDepth, strconv.IntSize)
	switch {
	case err != nil:
		return err
	case k == valOther:
		return sc.mismatch(field, "an integer")
	case k == valSet:
		*dst = int(n)
	}
	return nil
}

// usecField reads a ts or dur: a number literal, or a string holding
// one (what json.Number accepts).
func (sc *chromeScanner) usecField(dst *[]byte, field string) error {
	switch c := sc.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := sc.num()
		*dst = lit
		return err
	case c == 'n':
		return sc.lit("null")
	case c == '"':
		raw, plain, err := sc.str()
		if err != nil {
			return err
		}
		if !plain {
			raw = bytes.Clone(sc.unquote(raw))
		}
		if numberEnd(raw, 0) == len(raw) {
			*dst = raw
			return nil
		}
	}
	return sc.mismatch(field, "a number")
}

// argsField keeps the args value as written and, when it is an object,
// decodes the exporter's typed tags from it in the same pass.
func (sc *chromeScanner) argsField(e *ChromeEvent) error {
	start := sc.pos
	e.args, e.metaName = None, nil
	var err error
	if sc.peek() == '{' {
		err = sc.argsObject(e)
	} else {
		err = sc.skip(eventDepth)
	}
	e.Args = sc.data[start:sc.pos]
	return err
}

func (sc *chromeScanner) argsObject(e *ChromeEvent) error {
	sc.pos++
	a, ok := None, true
	for first := true; ; first = false {
		key, done, err := sc.member(first)
		if err != nil {
			return err
		}
		if done {
			break
		}
		k := valSet
		switch argsKeys.lookup(key) {
		case kPeer:
			var n int64
			if n, k, err = sc.signedVal(argsDepth, strconv.IntSize); k == valSet {
				a.Peer = int(n)
			} else if k == valNull {
				a.Peer = NoPeer // a pointer field in the reader this one replaced: null clears it
			}
		case kSize:
			var n int64
			if n, k, err = sc.signedVal(argsDepth, 64); k == valSet {
				a.Size = n
			}
		case kID:
			var mag uint64
			var neg bool
			if mag, neg, k, err = sc.intVal(argsDepth); neg {
				k = valOther
			} else if k == valSet {
				a.ID = mag
			}
		case kDetail:
			var s string
			if s, k, err = sc.strVal(argsDepth); k == valSet {
				a.Detail = s
			}
		case kPhase:
			var s string
			if s, k, err = sc.strVal(argsDepth); k == valSet {
				a.Phase = s
			}
		case kName:
			if sc.peek() == '"' {
				e.metaName, _, err = sc.str()
			} else {
				err = sc.skip(argsDepth)
			}
		default:
			err = sc.skip(argsDepth)
		}
		if err != nil {
			return err
		}
		if k == valOther {
			ok = false
		}
	}
	if ok {
		e.args = a
	}
	return nil
}
