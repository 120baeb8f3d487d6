package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ovlp/internal/trace"
)

// timeResScenario is the calm scenario plus time_resolved assertions.
func timeResScenario(asserts ...Assertion) *Scenario {
	s := calmScenario()
	s.Name = "timeres"
	s.Assertions = asserts
	return s
}

func TestTimeResolvedAssertionEvaluates(t *testing.T) {
	// Efficiencies are by construction in [0, 1], so min_eff 0 always
	// passes and min_eff 1 (tol 0) can only pass on a perfect run —
	// the calm exchange has idle startup windows, so it must fail.
	s := timeResScenario(
		Assertion{Check: "time_resolved", Metric: "par_eff", MinEff: fptr(0)},
		Assertion{Check: "time_resolved", Metric: "xfer_eff", MinEff: fptr(0)},
	)
	rr, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.TimeRes == nil {
		t.Fatal("run with time_resolved assertions has no TimeRes snapshot")
	}
	if vs := Evaluate(rr); len(vs) != 0 {
		t.Fatalf("trivially-true assertions violated: %v", vs)
	}

	s = timeResScenario(
		Assertion{Check: "time_resolved", Metric: "par_eff", MinEff: fptr(1)},
	)
	rr, err = Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	vs := Evaluate(rr)
	if len(vs) != 1 || vs[0].Check != "time_resolved" {
		t.Fatalf("impossible min_eff 1 not violated: %v", vs)
	}

	// An empty scope proves nothing and must be its own violation.
	s = timeResScenario(
		Assertion{Check: "time_resolved", Metric: "par_eff",
			From: Dur(time.Hour), MinEff: fptr(0)},
	)
	rr, err = Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	vs = Evaluate(rr)
	if len(vs) != 1 || vs[0].Check != "time_resolved" {
		t.Fatalf("empty scope not violated: %v", vs)
	}

	// Smoke runs skip the check entirely, like the hash assertions.
	smoke, err := Run(s, Opts{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if vs := Evaluate(smoke); len(vs) != 0 {
		t.Fatalf("smoke run must skip time_resolved, got %v", vs)
	}
}

func TestTimeResolvedValidation(t *testing.T) {
	cases := []struct {
		name    string
		asserts []Assertion
	}{
		{"unknown-metric", []Assertion{
			{Check: "time_resolved", Metric: "speedup", MinEff: fptr(0)}}},
		{"no-bounds", []Assertion{
			{Check: "time_resolved", Metric: "par_eff"}}},
		{"bad-phase", []Assertion{
			{Check: "time_resolved", Metric: "par_eff", Phase: "setup", MinEff: fptr(0)}}},
		{"bound-above-one", []Assertion{
			{Check: "time_resolved", Metric: "par_eff", MinEff: fptr(1.5)}}},
		{"empty-scope", []Assertion{
			{Check: "time_resolved", Metric: "par_eff", From: Dur(time.Millisecond),
				To: Dur(time.Millisecond), MinEff: fptr(0)}}},
		{"disagreeing-windows", []Assertion{
			{Check: "time_resolved", Metric: "par_eff", Window: Dur(time.Millisecond), MinEff: fptr(0)},
			{Check: "time_resolved", Metric: "par_eff", Window: Dur(2 * time.Millisecond), MinEff: fptr(0)}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := timeResScenario(c.asserts...)
			if err := s.Validate(); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}

	// The default metric is par_eff, filled in by validation.
	s := timeResScenario(Assertion{Check: "time_resolved", MinEff: fptr(0)})
	if err := s.Validate(); err != nil {
		t.Fatalf("metricless assertion rejected: %v", err)
	}
	if s.Assertions[0].Metric != "par_eff" {
		t.Fatalf("default metric = %q", s.Assertions[0].Metric)
	}
}

// countSink counts trace records delivered to an Opts.Sink.
type countSink struct{ n int }

func (c *countSink) TraceRec(tk *trace.Track, r trace.Rec) { c.n++ }

// TestOptsSinkObservesRun: a live sink passed through Opts sees the
// run's records without changing its artifacts.
func TestOptsSinkObservesRun(t *testing.T) {
	s := calmScenario()
	bare, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &countSink{}
	tapped, err := Run(s, Opts{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if sink.n == 0 {
		t.Fatal("sink saw no records")
	}
	if tapped.TraceHash != bare.TraceHash || tapped.ReportHash != bare.ReportHash {
		t.Fatal("attaching a sink changed the run's artifacts")
	}
}

// TestTimeResolvedCSVGolden byte-compares the pinned seed's windowed
// CSV — the live analyzer's full output for scenario phase-collapse —
// against the committed golden. Regenerate with
//
//	go run ./cmd/ovlp scenario -golden scenarios/golden -write-golden \
//	    -timeresolved scenarios/golden scenarios/09-phase-collapse.yaml
func TestTimeResolvedCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size scenario run skipped in -short mode")
	}
	s, err := LoadFile(filepath.Join(corpusDir, "09-phase-collapse.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.TimeRes == nil {
		t.Fatal("phase-collapse run produced no time-resolved snapshot")
	}
	var buf bytes.Buffer
	if err := rr.TimeRes.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(corpusDir, "golden", s.Name+".timeres.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("time-resolved CSV drifted from golden (%d vs %d bytes); regenerate if intentional",
			buf.Len(), len(golden))
	}
}
