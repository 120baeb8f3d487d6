package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// chromeOf is tr's WriteChrome document (a bytes.Buffer never fails).
func chromeOf(tr *Tracer) []byte {
	var b bytes.Buffer
	_ = tr.WriteChrome(&b)
	return b.Bytes()
}

// buildSample populates a tracer the way the stack does: host call
// spans with args, NIC wire spans, instants, and metrics.
func buildSample() *Tracer {
	tr := New(Options{})
	r0 := tr.Track(GroupHost, 0, "rank0")
	r0.Span("mpi", "Isend", us(0), us(3), Args{Peer: 1, Size: 1 << 20, ID: 1})
	r0.Instant("overlap", "xfer-begin", us(1), Args{Peer: NoPeer, ID: 1, Size: 1 << 20})
	r0.Span("kernel", "compute", us(3), us(10), None)
	nic := tr.Track(GroupNIC, 0, "nic0")
	nic.Span("wire", "xfer", us(2), us(9), Args{Peer: 1, Size: 1 << 20, ID: 1})
	nic.Instant("fault", "drop", us(4), Args{Peer: NoPeer, Detail: `quoted "detail"`})
	m := tr.Metrics()
	m.Counter("fabric.transfers").Inc()
	m.Gauge("overlap.drain_batch").Set(40)
	m.Histogram("fabric.xfer_size", []int64{1024}).Observe(1 << 20)
	return tr
}

// chromeDoc mirrors the trace-event JSON object format for decoding.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		S    string          `json:"s"`
		Ts   *float64        `json:"ts"`
		Dur  *float64        `json:"dur"`
		Pid  *int            `json:"pid"`
		Tid  *int            `json:"tid"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	Metrics *struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
			Max   int64  `json:"max"`
		} `json:"gauges"`
		Histograms []struct {
			Name    string  `json:"name"`
			Bounds  []int64 `json:"bounds"`
			Buckets []int64 `json:"buckets"`
			Count   int64   `json:"count"`
		} `json:"histograms"`
	} `json:"metrics"`
}

func exportDoc(t *testing.T, tr *Tracer) (chromeDoc, string) {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, b.String())
	}
	return doc, b.String()
}

func TestWriteChromeValid(t *testing.T) {
	doc, raw := exportDoc(t, buildSample())
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, spans, instants int
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Pid == nil {
			t.Fatalf("event missing required field: %+v", e)
		}
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if e.Ts == nil || e.Dur == nil || e.Cat == "" {
				t.Fatalf("span missing ts/dur/cat: %+v", e)
			}
		case "i":
			instants++
			if e.S != "t" || e.Ts == nil {
				t.Fatalf("instant missing s/ts: %+v", e)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// 2 tracks in 2 groups: 2 process_name + 2 process_sort_index +
	// 2 thread_name + 2 thread_sort_index.
	if meta != 8 {
		t.Errorf("metadata events = %d, want 8", meta)
	}
	if spans != 3 || instants != 2 {
		t.Errorf("spans/instants = %d/%d, want 3/2", spans, instants)
	}
	// Args encoding: absent Peer must not appear, present args must.
	if !strings.Contains(raw, `"args":{"peer":1,"size":1048576,"id":1}`) {
		t.Errorf("span args not encoded in fixed order:\n%s", raw)
	}
	if strings.Contains(raw, `"peer":-1`) {
		t.Error("NoPeer must be omitted from args")
	}
	if !strings.Contains(raw, `"detail":"quoted \"detail\""`) {
		t.Error("detail string not JSON-escaped")
	}
	// The 3µs span renders as exact decimal microseconds.
	if !strings.Contains(raw, `"ts":0.000,"dur":3.000`) {
		t.Errorf("span timestamps not exact-decimal:\n%s", raw)
	}
	m := doc.Metrics
	if m == nil || len(m.Counters) != 1 || m.Counters[0].Name != "fabric.transfers" || m.Counters[0].Value != 1 {
		t.Fatalf("metrics block wrong: %+v", m)
	}
	if len(m.Gauges) != 1 || m.Gauges[0].Max != 40 {
		t.Errorf("gauges wrong: %+v", m.Gauges)
	}
	if len(m.Histograms) != 1 || m.Histograms[0].Count != 1 || len(m.Histograms[0].Buckets) != 2 {
		t.Errorf("histograms wrong: %+v", m.Histograms)
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSample().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSample().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical tracers must export byte-identical files")
	}
	// Re-export of the same tracer must also be stable (Recs flattens
	// the ring and chunk list once; a second pass reads that slice).
	tr := buildSample()
	var c, d bytes.Buffer
	if err := tr.WriteChrome(&c); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Bytes(), d.Bytes()) {
		t.Error("re-exporting one tracer must be byte-identical")
	}
}

func TestUsecFormat(t *testing.T) {
	cases := map[int64]string{
		0:                              "0.000",
		int64(time.Microsecond):        "1.000",
		1500:                           "1.500",
		7:                              "0.007",
		int64(2*time.Millisecond + 42): "2000.042",
		-1500:                          "-1.500",
		math.MaxInt64:                  "9223372036854775.807",
		math.MinInt64:                  "-9223372036854775.808",
	}
	for in, want := range cases {
		got := string(AppendUsec([]byte("x"), in))
		if got != "x"+want {
			t.Errorf("AppendUsec(%d) = %q, want %q", in, got, "x"+want)
		}
		if back := ParseUsec(want); back != in {
			t.Errorf("ParseUsec(%q) = %d, want %d", want, back, in)
		}
	}
}

func TestParseUsec(t *testing.T) {
	cases := map[string]int64{
		"":          0,
		"12":        12000,
		"12.5":      12500,
		"0.0079":    7, // truncates past the third digit
		"-3.25":     -3250,
		"1e3":       0, // not a plain decimal
		"1.2x":      0,
		"abc":       0,
		"1.234.567": 1234,
	}
	for in, want := range cases {
		if got := ParseUsec(in); got != want {
			t.Errorf("ParseUsec(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestWriteJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	var b bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON invalid: %v\n%s", err, b.String())
	}
}
