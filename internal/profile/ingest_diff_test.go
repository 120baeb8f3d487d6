package profile

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ovlp/internal/trace"
)

// The equivalence contract between FromChromeJSON (trace.ScanChrome)
// and the encoding/json ingester it replaced, for every input:
//
//   - both accept or both reject, with the same class of error
//     ("not a trace-event file" or "no traceEvents array");
//   - when both accept, the two Inputs are reflect.DeepEqual.
//
// The one exception is a second top-level traceEvents key, which the
// new reader rejects (errDuplicate) and the harness therefore skips.
const errDuplicate = "profile: duplicate traceEvents array"

// errClass strips an ingest error down to the part the contract pins.
func errClass(err error) string {
	switch {
	case err == nil:
		return "accepted"
	case strings.HasPrefix(err.Error(), "profile: not a trace-event file:"):
		return "not a trace-event file"
	}
	return err.Error()
}

// checkAgainstReference holds one document to the contract and returns
// what FromChromeJSON made of it.
func checkAgainstReference(t *testing.T, data []byte) (Input, error) {
	t.Helper()
	got, gotErr := FromChromeJSON(bytes.NewReader(data), nil)
	if gotErr != nil && gotErr.Error() == errDuplicate {
		return got, gotErr
	}
	want, wantErr := referenceFromChromeJSON(bytes.NewReader(data), nil)
	if g, w := errClass(gotErr), errClass(wantErr); g != w {
		t.Fatalf("FromChromeJSON: %s (%v), reference: %s (%v)\ninput: %.300q", g, gotErr, w, wantErr, data)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("Inputs differ\n got: %+v\nwant: %+v\ninput: %.300q", got, want, data)
	}
	return got, gotErr
}

// contractCases pins each encoding/json behaviour the decoder has to
// reproduce (the fuzzer found most of them); check, when set, asserts
// what the accepted Input holds.
var contractCases = []struct {
	name, doc string
	wantErr   string // a substring of the error; "" means accepted
	check     func(t *testing.T, in Input)
}{
	// (1) keys bind exactly, else case-insensitively.
	{name: "folded keys", doc: `{"trACeEvents":[{"nAme":"n","CAT":"c","PH":"X","TS":1,"Dur":2,"PID":1,"Tid":3,"Args":{"PEER":4,"Size":5,"iD":6,"DETAIL":"d","Phase":"p"}}]}`,
		check: func(t *testing.T, in Input) {
			want := trace.Rec{Cat: "c", Name: "n", Start: 1000, Dur: 2000,
				Args: trace.Args{Peer: 4, Size: 5, ID: 6, Detail: "d", Phase: "p"}}
			if len(in.Ranks) != 1 || in.Ranks[0].Rank != 2 || !reflect.DeepEqual(in.Ranks[0].Recs, []trace.Rec{want}) {
				t.Errorf("folded keys did not bind: %+v", in.Ranks)
			}
		}},
	{name: "unicode-folded key", doc: `{"traceEventſ":[{"ph":"i","pid":1,"tid":1,"argſ":{"Kind":1,"ſize":9}}]}`,
		check: func(t *testing.T, in Input) {
			if len(in.Ranks) != 1 || in.Ranks[0].Recs[0].Args.Size != 9 {
				t.Errorf("U+017F did not fold to s: %+v", in.Ranks)
			}
		}},
	{name: "escaped key", doc: `{"\u0074raceEvents":[{"p\u0068":"i","pid":1,"tid":1}]}`,
		check: func(t *testing.T, in Input) {
			if len(in.Ranks) != 1 {
				t.Errorf("escaped keys did not bind: %+v", in)
			}
		}},
	{name: "exact beats folded, last wins", doc: `{"traceEvents":[{"ph":"i","pid":1,"tid":1,"name":"a","NAME":"b"},{"ph":"i","pid":1,"tid":1,"NAME":"b","name":"a"}]}`,
		check: func(t *testing.T, in Input) {
			if r := in.Ranks[0].Recs; r[0].Name != "b" || r[1].Name != "a" {
				t.Errorf("names %q %q, want b a", r[0].Name, r[1].Name)
			}
		}},
	// (2) duplicate keys: the last wins.
	{name: "duplicate field", doc: `{"traceEvents":[{"ph":"X","ph":"i","pid":2,"pid":1,"tid":1,"ts":1,"ts":2,"args":{"id":1},"args":{"size":2}}],"clockDomain":"real","clockDomain":"fake"}`,
		check: func(t *testing.T, in Input) {
			want := trace.Rec{Start: 2000, Args: trace.Args{Peer: trace.NoPeer, Size: 2}}
			if in.ClockDomain != "fake" || !reflect.DeepEqual(in.Ranks[0].Recs, []trace.Rec{want}) {
				t.Errorf("last duplicate did not win: %+v", in)
			}
		}},
	{name: "duplicate args null", doc: `{"traceEvents":[{"ph":"i","pid":1,"tid":1,"args":{"id":1},"args":null}]}`,
		check: func(t *testing.T, in Input) {
			if a := in.Ranks[0].Recs[0].Args; a != trace.None {
				t.Errorf("args = %+v, want none (a later null args replaces the object)", a)
			}
		}},
	{name: "duplicate metrics", doc: `{"traceEvents":[],"metrics":{"gauges":[{"name":"run.duration_ns","value":5}]},"metrics":{"gauges":[{"name":"run.duration_ns","value":7}]}}`,
		check: func(t *testing.T, in Input) {
			if in.Duration != 7 {
				t.Errorf("Duration = %d, want 7", in.Duration)
			}
		}},
	// (3) null leaves a field unset.
	{name: "null fields", doc: `{"traceEvents":[{"name":"n","name":null,"cat":null,"ph":"i","ph":null,"ts":3,"ts":null,"dur":null,"pid":1,"pid":null,"tid":1,"tid":null,"args":{"peer":2,"size":1,"size":null,"id":null,"detail":null,"phase":null}}],"clockDomain":null,"metrics":null}`,
		check: func(t *testing.T, in Input) {
			want := trace.Rec{Name: "n", Start: 3000, Args: trace.Args{Peer: 2, Size: 1}}
			if !reflect.DeepEqual(in.Ranks[0].Recs, []trace.Rec{want}) {
				t.Errorf("null overwrote a field: %+v", in.Ranks[0].Recs)
			}
		}},
	{name: "null peer clears", doc: `{"traceEvents":[{"ph":"i","pid":1,"tid":1,"args":{"peer":2,"peer":null}}]}`,
		check: func(t *testing.T, in Input) {
			if p := in.Ranks[0].Recs[0].Args.Peer; p != trace.NoPeer {
				t.Errorf("Peer = %d, want NoPeer", p)
			}
		}},
	{name: "null element", doc: `{"traceEvents":[null,{"ph":"i","pid":1,"tid":1},null]}`,
		check: func(t *testing.T, in Input) {
			if len(in.Ranks) != 1 || len(in.Ranks[0].Recs) != 1 {
				t.Errorf("null elements were not skipped: %+v", in.Ranks)
			}
		}},
	{name: "null traceEvents", doc: `{"traceEvents":null}`, wantErr: "profile: no traceEvents array in input"},
	{name: "null then array", doc: `{"traceEvents":null,"traceEvents":[]}`},
	{name: "null document", doc: ` null `, wantErr: "profile: no traceEvents array in input"},
	// (4) ts and dur also accept a quoted number literal.
	{name: "quoted stamps", doc: `{"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":"12.5","dur":"1.25"}]}`,
		check: func(t *testing.T, in Input) {
			if r := in.Ranks[0].Recs[0]; r.Start != 12500 || r.Dur != 1250 {
				t.Errorf("quoted stamps parsed as %d/%d", r.Start, r.Dur)
			}
		}},
	{name: "quoted stamp not a number", doc: `{"traceEvents":[{"ph":"X","ts":"12.5x"}]}`, wantErr: "not a trace-event file"},
	{name: "quoted stamp empty", doc: `{"traceEvents":[{"ph":"X","ts":""}]}`, wantErr: "not a trace-event file"},
	{name: "exponent stamp", doc: `{"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":1e3,"dur":-0.5E-2}]}`},
	// (5) what fails the whole document.
	{name: "string field is a number", doc: `{"traceEvents":[{"name":5}]}`, wantErr: "not a trace-event file"},
	{name: "string field is an object", doc: `{"traceEvents":[{"ph":{}}]}`, wantErr: "not a trace-event file"},
	{name: "stamp is a bool", doc: `{"traceEvents":[{"ts":true}]}`, wantErr: "not a trace-event file"},
	{name: "stamp is an array", doc: `{"traceEvents":[{"dur":[1]}]}`, wantErr: "not a trace-event file"},
	{name: "pid is a string", doc: `{"traceEvents":[{"pid":"1"}]}`, wantErr: "not a trace-event file"},
	{name: "pid has a fraction", doc: `{"traceEvents":[{"pid":1.0}]}`, wantErr: "not a trace-event file"},
	{name: "tid has an exponent", doc: `{"traceEvents":[{"tid":1e2}]}`, wantErr: "not a trace-event file"},
	{name: "pid overflows", doc: `{"traceEvents":[{"pid":9223372036854775808}]}`, wantErr: "not a trace-event file"},
	{name: "pid at the limits", doc: `{"traceEvents":[{"pid":9223372036854775807,"tid":-9223372036854775808},{"pid":-0}]}`},
	{name: "clockDomain is a number", doc: `{"traceEvents":[],"clockDomain":1}`, wantErr: "not a trace-event file"},
	{name: "element is a number", doc: `{"traceEvents":[1]}`, wantErr: "not a trace-event file"},
	{name: "traceEvents is an object", doc: `{"traceEvents":{}}`, wantErr: "not a trace-event file"},
	{name: "top level is an array", doc: `[]`, wantErr: "not a trace-event file"},
	{name: "top level is a string", doc: `"traceEvents"`, wantErr: "not a trace-event file"},
	{name: "trailing bytes", doc: `{"traceEvents":[]} x`, wantErr: "not a trace-event file"},
	{name: "second document", doc: `{"traceEvents":[]}{}`, wantErr: "not a trace-event file"},
	{name: "invalid after the array", doc: `{"traceEvents":[],"x":tru}`, wantErr: "not a trace-event file"},
	{name: "invalid in an unknown key", doc: `{"traceEvents":[{"x":[1,]}]}`, wantErr: "not a trace-event file"},
	{name: "control byte in a string", doc: "{\"traceEvents\":[{\"name\":\"a\tb\"}]}", wantErr: "not a trace-event file"},
	{name: "bad escape", doc: `{"traceEvents":[{"name":"\'"}]}`, wantErr: "not a trace-event file"},
	{name: "leading zero", doc: `{"traceEvents":[{"ts":01}]}`, wantErr: "not a trace-event file"},
	{name: "empty", doc: ``, wantErr: "not a trace-event file"},
	{name: "no array", doc: `{"metrics":{}}`, wantErr: "profile: no traceEvents array in input"},
	{name: "whitespace", doc: " \t\r\n{ \"traceEvents\" : [ { \"ph\" : \"i\" , \"pid\" : 1 , \"tid\" : 1 } , { } ] } \n"},
	// (6) args with a field of the wrong type or range are ignored whole.
	{name: "lenient args", doc: `{"traceEvents":[` +
		`{"ph":"i","pid":1,"tid":1,"args":{"size":7,"peer":1.5}},` +
		`{"ph":"i","pid":1,"tid":1,"args":{"size":7,"id":-1}},` +
		`{"ph":"i","pid":1,"tid":1,"args":{"size":7,"id":-0}},` +
		`{"ph":"i","pid":1,"tid":1,"args":{"size":7,"detail":5}},` +
		`{"ph":"i","pid":1,"tid":1,"args":{"size":7,"phase":[]}},` +
		`{"ph":"i","pid":1,"tid":1,"args":{"size":"7"}},` +
		`{"ph":"i","pid":1,"tid":1,"args":{"size":7,"id":18446744073709551616}},` +
		`{"ph":"i","pid":1,"tid":1,"args":{"size":9223372036854775808}},` +
		`{"ph":"i","pid":1,"tid":1,"args":[{"size":7}]},` +
		`{"ph":"i","pid":1,"tid":1,"args":"size"},` +
		`{"ph":"i","pid":1,"tid":1,"args":7}]}`,
		check: func(t *testing.T, in Input) {
			for i, r := range in.Ranks[0].Recs {
				if r.Args != trace.None {
					t.Errorf("record %d: args = %+v, want none", i, r.Args)
				}
			}
		}},
	{name: "full-range id", doc: `{"traceEvents":[{"ph":"i","pid":1,"tid":1,"args":{"id":18446744073709551615,"size":-9223372036854775808}}]}`,
		check: func(t *testing.T, in Input) {
			if a := in.Ranks[0].Recs[0].Args; a.ID != 1<<64-1 || a.Size != -1<<63 {
				t.Errorf("args = %+v", a)
			}
		}},
	{name: "unknown args keys", doc: `{"traceEvents":[{"ph":"i","pid":1,"tid":1,"args":{"sort_index":{"a":[1,2,{"b":null}]},"id":3}}]}`,
		check: func(t *testing.T, in Input) {
			if a := in.Ranks[0].Recs[0].Args; a.ID != 3 {
				t.Errorf("args = %+v", a)
			}
		}},
	{name: "lenient thread names", doc: `{"traceEvents":[` +
		`{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"a","name":5}},` +
		`{"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{"name":"b","NAME":"c","name":null,"peer":"x"}},` +
		`{"ph":"M","name":"thread_name","pid":1,"tid":3,"args":{"name":"d"},"args":[]},` +
		`{"ph":"M","name":"thread_name","pid":1,"tid":4,"args":{"name":"ré😀"}},` +
		`{"ph":"i","pid":1,"tid":1},{"ph":"i","pid":1,"tid":2},{"ph":"i","pid":1,"tid":3},{"ph":"i","pid":1,"tid":4},{"ph":"i","pid":1,"tid":5},` +
		`{"ph":"M","name":"thread_name","pid":1,"tid":5,"args":{"name":"late"}},` +
		`{"ph":"M","name":"thread_name","pid":1,"tid":1}]}`,
		check: func(t *testing.T, in Input) {
			var names []string
			for _, rs := range in.Ranks {
				names = append(names, rs.Name)
			}
			if want := []string{"a", "c", "", "ré😀", "late"}; !reflect.DeepEqual(names, want) {
				t.Errorf("thread names %q, want %q", names, want)
			}
		}},
	// (7) strings decode as encoding/json decodes them.
	{name: "string escapes", doc: `{"traceEvents":[{"ph":"i","pid":1,"tid":1,` +
		`"name":"\"\\\/\b\f\n\r\t\u0041\u00e9\u20AC",` +
		`"cat":"\ud83d\ude00|\ud83d|\ude00|\ud83dA|\ud83d\u0041|\ud83d\ud83d\ude00|\uD83D",` +
		`"args":{"detail":"\u0000\u001f\uffff"}}]}`,
		check: func(t *testing.T, in Input) {
			r := in.Ranks[0].Recs[0]
			if r.Name != "\"\\/\b\f\n\r\tAé€" || r.Cat != "😀|\ufffd|\ufffd|\ufffdA|\ufffdA|\ufffd😀|\ufffd" || r.Args.Detail != "\x00\x1f\uffff" {
				t.Errorf("decoded %q %q %q", r.Name, r.Cat, r.Args.Detail)
			}
		}},
	{name: "invalid UTF-8", doc: "{\"traceEvents\":[{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"name\":\"a\xffb\xc3\",\"cat\":\"\xe2\x82\",\"args\":{\"phase\":\"\xed\xa0\x80\"}}]}",
		check: func(t *testing.T, in Input) {
			r := in.Ranks[0].Recs[0]
			if r.Name != "a\ufffdb\ufffd" || r.Cat != "\ufffd\ufffd" || r.Args.Phase != "\ufffd\ufffd\ufffd" {
				t.Errorf("decoded %q %q %q", r.Name, r.Cat, r.Args.Phase)
			}
		}},
	{name: "DEL and raw UTF-8", doc: "{\"traceEvents\":[{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"name\":\"\x7f\",\"cat\":\"ré😀\"}]}",
		check: func(t *testing.T, in Input) {
			if r := in.Ranks[0].Recs[0]; r.Name != "\x7f" || r.Cat != "ré😀" {
				t.Errorf("decoded %q %q", r.Name, r.Cat)
			}
		}},
	// What the ingester does with the events, unchanged.
	{name: "s is not interpreted", doc: `{"traceEvents":[{"ph":"i","s":5,"pid":1,"tid":1},{"ph":"i","s":{"a":[]},"pid":1,"tid":1}]}`},
	{name: "nic records", doc: `{"traceEvents":[` +
		`{"ph":"X","cat":"wire","name":"xfer","pid":2,"tid":3,"ts":1,"dur":2,"args":{"peer":1,"size":64,"id":9,"phase":"eager"}},` +
		`{"ph":"i","cat":"rel","name":"retransmit","pid":2,"tid":3,"ts":4,"args":{"id":9}},` +
		`{"ph":"i","cat":"rel","name":"repost","pid":2,"tid":3,"ts":5,"args":{"id":9}},` +
		`{"ph":"B","pid":1,"tid":1},{"ph":"i","pid":3,"tid":1}]}`,
		check: func(t *testing.T, in Input) {
			want := []WireSpan{{ID: 9, Src: 2, Dst: 1, Size: 64, Start: 1000, End: 3000, Phase: "eager"}}
			if !reflect.DeepEqual(in.Wire, want) || in.Retrans[9] != 2 || in.Ranks != nil {
				t.Errorf("nic records: %+v", in)
			}
		}},
}

func TestIngestContract(t *testing.T) {
	for _, c := range contractCases {
		t.Run(c.name, func(t *testing.T) {
			in, err := checkAgainstReference(t, []byte(c.doc))
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error %v, want %q", err, c.wantErr)
			case err == nil && c.check != nil:
				c.check(t, in)
			}
		})
	}
}

// TestIngestDuplicateTraceEvents pins the contract's one narrowing: the
// reference decodes a second traceEvents array over the first one's
// elements (an "X" event on pid 1 here, which neither array holds).
func TestIngestDuplicateTraceEvents(t *testing.T) {
	for _, doc := range []string{
		`{"traceEvents":[{"ph":"X","tid":1}],"traceEvents":[{"pid":1}]}`,
		`{"traceEvents":[],"TRACEEVENTS":[]}`,
		`{"traceEvents":[],"traceEvents":null}`,
	} {
		if _, err := FromChromeJSON(strings.NewReader(doc), nil); err == nil || err.Error() != errDuplicate {
			t.Errorf("%s: error %v, want %q", doc, err, errDuplicate)
		}
	}
	in, err := referenceFromChromeJSON(strings.NewReader(`{"traceEvents":[{"ph":"X","tid":1}],"traceEvents":[{"pid":1}]}`), nil)
	if err != nil || len(in.Ranks) != 1 {
		t.Errorf("the reference no longer merges duplicate arrays (%+v, %v): drop the narrowing", in, err)
	}
}

// TestIngestNestingLimit: encoding/json accepts 10000 open arrays and
// objects and not one more; the document and the events array are two.
func TestIngestNestingLimit(t *testing.T) {
	nested := func(n int) []byte {
		return []byte(`{"traceEvents":[],"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
	}
	if _, err := checkAgainstReference(t, nested(9999)); err != nil {
		t.Errorf("9999 arrays inside the document rejected: %v", err)
	}
	if _, err := checkAgainstReference(t, nested(10000)); err == nil {
		t.Error("10000 arrays inside the document accepted")
	}
	inArgs := []byte(`{"traceEvents":[{"args":{"x":` + strings.Repeat(`{"a":`, 9996) + `1` + strings.Repeat("}", 9996) + `}}]}`)
	if _, err := checkAgainstReference(t, inArgs); err != nil {
		t.Errorf("depth 10000 inside args rejected: %v", err)
	}
	inArgs = bytes.Replace(inArgs, []byte(`1}`), []byte(`[]}`), 1)
	if _, err := checkAgainstReference(t, inArgs); err == nil {
		t.Error("depth 10001 inside args accepted")
	}
}

// FuzzIngestMatchesReference holds arbitrary bytes to the equivalence
// contract at the top of this file.
//
// Run long with: go test -fuzz=FuzzIngestMatchesReference -fuzzminimizetime 3s ./internal/profile
func FuzzIngestMatchesReference(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz-seed-trace.json"))
	if err != nil {
		f.Fatalf("committed seed trace missing: %v", err)
	}
	f.Add(seed)
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	for _, c := range contractCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

// respellings returns doc as written, indented, and re-marshalled
// through map[string]any (keys sorted, numbers through float64).
func respellings(t *testing.T, doc []byte) map[string][]byte {
	t.Helper()
	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, "\t", "  "); err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(doc, &generic); err != nil {
		t.Fatal(err)
	}
	remarshalled, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"as written": doc, "indented": indented.Bytes(), "re-marshalled": remarshalled}
}

// TestIngestRespelledFiles: files that are not byte for byte what the
// exporter writes — indented, re-marshalled by a generic JSON tool,
// merged by tracecat — ingest exactly as the reference ingests them.
func TestIngestRespelledFiles(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz-seed-trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	w := workloads()[3] // direct-faulted
	_, _, tr := runProfiled(t, w.cfg, w.body)
	files := map[string][]byte{"seed": seed, "faulted": tr.AppendChrome(nil)}

	if goTool, err := exec.LookPath("go"); err != nil {
		t.Log("no go tool: tracecat merge not covered")
	} else {
		dir := t.TempDir()
		for name, doc := range files {
			if err := os.WriteFile(filepath.Join(dir, name+".json"), doc, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		merged := filepath.Join(dir, "merged.json")
		cmd := exec.Command(goTool, "run", "ovlp/cmd/tracecat", "-o", merged, filepath.Join(dir, "seed.json"), filepath.Join(dir, "faulted.json"))
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("tracecat: %v\n%s", err, out)
		}
		if files["merged"], err = os.ReadFile(merged); err != nil {
			t.Fatal(err)
		}
	}

	for name, doc := range files {
		for spelling, b := range respellings(t, doc) {
			in, err := checkAgainstReference(t, b)
			if err != nil {
				t.Errorf("%s, %s: %v", name, spelling, err)
			} else if len(in.Ranks) == 0 || len(in.Wire) == 0 {
				t.Errorf("%s, %s: ingested nothing: %d ranks, %d wire spans", name, spelling, len(in.Ranks), len(in.Wire))
			}
		}
	}
}
