package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// scanAll collects what ScanChrome hands its callback.
func scanAll(data string) ([]ChromeEvent, ChromeDoc, error) {
	var events []ChromeEvent
	doc, err := ScanChrome([]byte(data), func(e *ChromeEvent) error {
		events = append(events, *e)
		return nil
	})
	return events, doc, err
}

// TestScanChromeInvertsWriteChrome: every record, track name and
// top-level stamp of an export comes back as it went in.
func TestScanChromeInvertsWriteChrome(t *testing.T) {
	tr := buildSample()
	tr.SetClockDomain("real")
	events, doc, err := scanAll(string(chromeOf(tr)))
	if err != nil {
		t.Fatal(err)
	}
	if !doc.HasEvents || doc.ClockDomain != "real" {
		t.Errorf("doc = %+v", doc)
	}
	var snap Snapshot
	if err := json.Unmarshal(doc.Metrics, &snap); err != nil || !reflect.DeepEqual(&snap, tr.Metrics().Snapshot()) {
		t.Errorf("metrics block %s (%v) is not the snapshot", doc.Metrics, err)
	}

	type track struct{ pid, tid int }
	names := make(map[track]string)
	recs := make(map[track][]Rec)
	for i := range events {
		e := &events[i]
		k := track{e.Pid, e.Tid}
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				names[k] = e.MetaName()
			}
		case "i":
			if e.S != "t" {
				t.Errorf("instant %q has scope %q", e.Name, e.S)
			}
			fallthrough
		case "X":
			recs[k] = append(recs[k], e.Rec())
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	for _, tk := range tr.Tracks() {
		k := track{int(tk.Group()), tk.ID() + 1}
		if names[k] != tk.Name() {
			t.Errorf("track %v named %q, want %q", k, names[k], tk.Name())
		}
		if !reflect.DeepEqual(recs[k], tk.Recs()) {
			t.Errorf("track %v records\n got %+v\nwant %+v", k, recs[k], tk.Recs())
		}
	}
}

// TestScanChromeRawFields: stamps and args reach the caller as written
// (ovlp tracecat re-emits them), whatever their type.
func TestScanChromeRawFields(t *testing.T) {
	events, _, err := scanAll(`{"traceEvents":[
		{"ts":1.500,"dur":"2.5","args": {"a" : [1, 2]} ,"s":"t"},
		{"ts":-0.001e2,"args":null,"s":7},
		{"args":"x\u0041"},
		{}]}`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range events {
		got = append(got, fmt.Sprintf("%s|%s|%s|%s", e.Ts, e.Dur, e.Args, e.S))
	}
	want := []string{`1.500|2.5|{"a" : [1, 2]}|t`, `-0.001e2||null|`, `||"x\u0041"|`, `|||`}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("raw fields %q, want %q", got, want)
	}
	if events[3].Args != nil || events[1].Args == nil {
		t.Error("an absent args must be nil and a null one not")
	}
}

// TestScanChromeValidatesLikeJSON: inside a key the decoder does not
// know, what it accepts is exactly what json.Valid accepts.
func TestScanChromeValidatesLikeJSON(t *testing.T) {
	values := []string{
		`0`, `-0`, `10`, `1.5`, `1e5`, `1E+5`, `1e-5`, `-1.25e+10`, `01`, `-`, `+1`, `1.`, `.5`, `1e`, `1e+`, `0x10`, `1.5.5`, `--1`, `Infinity`, `NaN`,
		`true`, `false`, `null`, `tru`, `nul`, `True`, `nulll`, `truefalse`,
		`""`, `"a"`, `"\u00e9"`, `"\u00E9"`, `"\u00g9"`, `"\u00"`, `"\"`, `"\x"`, `"\'"`, `"a`, `"a\`, "\"\x1f\"", "\"\x7f\"", "\"\xff\"", `"\ud800"`, `'a'`,
		`[]`, `[1]`, `[1,2]`, `[1,]`, `[,1]`, `[1 2]`, `[`, `]`, `[[]]`, `[[]`, `[]]`, `[1,[2,{"a":[]}]]`,
		`{}`, `{"a":1}`, `{"a":1,"b":2}`, `{"a":1,}`, `{,}`, `{"a"}`, `{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `{"a":1`, `{"a":{"b":{}}}`, `{"a"::1}`, `{1:1}`, `{"a":1}}`,
		` 1 `, "\t[\n1\r,\n2 ]", "\v1", "1\x00", ``, ` `, `1 2`, `//c`,
	}
	for _, v := range values {
		for _, doc := range []string{
			`{"traceEvents":[],"x":` + v + `}`,
			`{"traceEvents":[{"x":` + v + `}]}`,
			`{"traceEvents":[{"args":{"x":` + v + `}}]}`,
			`{"traceEvents":[{"args":` + v + `}]}`,
			`{"traceEvents":[],"metrics":` + v + `}`,
			`{"traceEvents":[{"s":` + v + `}]}`,
			`{"traceEvents":[]}` + v,
		} {
			_, _, err := scanAll(doc)
			if valid := json.Valid([]byte(doc)); valid != (err == nil) {
				t.Errorf("%q: json.Valid says %v, ScanChrome says %v", doc, valid, err)
			}
		}
	}
}

// TestScanChromeStringsLikeJSON: a string decodes to what encoding/json
// makes of it, through Name (interned), MetaName and an object key.
func TestScanChromeStringsLikeJSON(t *testing.T) {
	for _, lit := range []string{
		`""`, `"plain"`, `"\"\\\/\b\f\n\r\t"`, `"\u0041\u00e9\u20AC\uffff\u0000"`,
		`"\ud83d\ude00"`, `"\ud83d"`, `"\ude00"`, `"\ud83dx"`, `"\ud83dA"`, `"\ud83d\ud83d\ude00"`, `"\ude00\ud83d"`, `"\ud83d\\ude00"`,
		"\"résumé \U0001F600\"", "\"\xff\"", "\"a\xc3\"", "\"\xe2\x82\"", "\"\xed\xa0\x80\"", "\"\xf4\x90\x80\x80\"", "\"\x7f\"",
	} {
		var want string
		if err := json.Unmarshal([]byte(lit), &want); err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		events, _, err := scanAll(`{"traceEvents":[{"name":` + lit + `,"args":{"name":` + lit + `}}]}`)
		if err != nil {
			t.Errorf("%s: %v", lit, err)
			continue
		}
		if events[0].Name != want || events[0].MetaName() != want {
			t.Errorf("%s: Name %q, MetaName %q, want %q", lit, events[0].Name, events[0].MetaName(), want)
		}
	}
	// A key is decoded before it is matched.
	events, _, err := scanAll(`{"traceEvents":[{"name":"n","n\u0061me":"m"}]}`)
	if err != nil || len(events) != 1 || events[0].Name != "m" {
		t.Errorf("escaped keys: %+v, %v", events, err)
	}
}

func TestScanChromeCallbackError(t *testing.T) {
	stop := errors.New("stop")
	n := 0
	_, err := ScanChrome([]byte(`{"traceEvents":[{},{},{}]}`), func(*ChromeEvent) error {
		n++
		return stop
	})
	if err != stop || n != 1 {
		t.Errorf("err %v after %d events, want the callback's error after 1", err, n)
	}
	if _, _, err := scanAll(`{"traceEvents":[],"traceEvents":[]}`); !errors.Is(err, ErrDuplicateTraceEvents) {
		t.Errorf("second traceEvents array: %v", err)
	}
}

// TestScanChromeInternTableCapped: a hostile file of all-distinct names
// cannot grow the intern table past its cap, the names still decode,
// and a vocabulary seen before the flood stays interned.
func TestScanChromeInternTableCapped(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"traceEvents":[{"name":"first"}`)
	for i := 0; i < 3*internCap; i++ {
		fmt.Fprintf(&b, `,{"name":"n%d","cat":"c%d","args":{"detail":"d%d","phase":"p%d"}}`, i, i, i, i)
	}
	b.WriteString(`,{"name":"first"}]}`)
	sc := chromeScanner{data: []byte(b.String()), intern: make(map[string]string)}
	var doc ChromeDoc
	i := -1
	err := sc.document(&doc, func(e *ChromeEvent) error {
		if i >= 0 && i < 3*internCap {
			if want := fmt.Sprintf("n%d", i); e.Name != want || e.Rec().Args.Detail != "d"+want[1:] {
				t.Errorf("event %d decoded as %q/%q", i, e.Name, e.Rec().Args.Detail)
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.intern) != internCap {
		t.Errorf("intern table holds %d strings, want the cap %d", len(sc.intern), internCap)
	}
	if _, ok := sc.intern["first"]; !ok {
		t.Error("the early vocabulary was evicted")
	}
}
