package scenario

import (
	"bytes"
	"strings"
	"testing"

	"ovlp/internal/cluster"
	"ovlp/internal/mpi"
	"ovlp/internal/trace"
)

// rerunCorpus is every committed scenario plus eight generated ones —
// the set the host-cost benchmark's corpus workload sweeps.
func rerunCorpus(t *testing.T) []*Scenario {
	t.Helper()
	scenarios, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return append(scenarios, Generate(0x16, 8)...)
}

// TestRerunMatchesFullRun is the differential proof behind the lean
// determinism re-run: what checkDeterminism executes (simulate without
// the primary run's taps) yields the TraceHash and ReportHash of a full
// Run, which a second full Run — the re-run it replaces — yields too.
// So comparing against the lean re-run gives the verdict comparing
// against a full one gave.
func TestRerunMatchesFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size corpus runs skipped in -short mode")
	}
	for _, s := range rerunCorpus(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			first, err := Run(s, Opts{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			second, err := Run(s, Opts{})
			if err != nil {
				t.Fatalf("second Run: %v", err)
			}
			lean, tres, err := simulate(s, Opts{}, false)
			if err != nil {
				t.Fatalf("lean re-run: %v", err)
			}
			if tres != nil || lean.Events != nil || lean.Findings != nil || lean.TimeRes != nil {
				t.Error("lean re-run carried a primary-only tap")
			}
			report, err := encodeReport(lean)
			if err != nil {
				t.Fatal(err)
			}
			if first.TraceHash != second.TraceHash || first.ReportHash != second.ReportHash {
				t.Fatalf("two full runs differ: trace %s/%s report %s/%s",
					short(first.TraceHash), short(second.TraceHash), short(first.ReportHash), short(second.ReportHash))
			}
			if lean.TraceHash != first.TraceHash {
				t.Errorf("lean trace hash %s, full run %s", short(lean.TraceHash), short(first.TraceHash))
			}
			if got := hashBytes(report); got != first.ReportHash {
				t.Errorf("lean report hash %s, full run %s", short(got), short(first.ReportHash))
			}
			var out []Violation
			checkDeterminism(first, func(check, expected, observed string) {
				out = append(out, Violation{Scenario: s.Name, Check: check, Expected: expected, Observed: observed})
			})
			for _, v := range out {
				t.Errorf("deterministic run tripped the check: %s", v)
			}
		})
	}
}

// TestRerunStillTripsDeterminism perturbs what the re-run executes: a
// result whose scenario re-runs under another fault seed must produce
// both violations, worded with the hashes as before; a live sink, which
// mutates nothing and which the re-run sheds, must produce none.
func TestRerunStillTripsDeterminism(t *testing.T) {
	var s *Scenario
	for _, g := range Generate(0x16, 8) {
		if strings.Contains(g.Name, "cascade") || strings.Contains(g.Name, "jitter") {
			s = g
			break
		}
	}
	if s == nil {
		t.Fatal("generator produced no seeded-fault scenario")
	}
	sink := &countSink{}
	rr, err := Run(s, Opts{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	seen := sink.n
	for _, v := range Evaluate(rr) {
		t.Errorf("unperturbed run: %s", v)
	}
	if sink.n != seen {
		t.Errorf("re-run fed the live sink: %d records after Run, %d after Evaluate", seen, sink.n)
	}

	reseeded := *s
	reseeded.Seed++
	other, err := Run(&reseeded, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if other.TraceHash == rr.TraceHash {
		t.Fatal("changing the seed did not change the trace — weak fixture")
	}
	rr.Scenario = &reseeded
	var observed []string
	for _, v := range Evaluate(rr) {
		if v.Check == "determinism" {
			observed = append(observed, v.Observed)
		}
	}
	if len(observed) != 2 {
		t.Fatalf("perturbed re-run: determinism violations %q, want one per artifact", observed)
	}
	if want := "rerun produced " + short(other.TraceHash); observed[0] != want {
		t.Errorf("trace violation observed %q, want %q", observed[0], want)
	}
	if want := "rerun produced " + short(other.ReportHash); observed[1] != want {
		t.Errorf("report violation observed %q, want %q", observed[1], want)
	}
}

// TestRerunWalksNoCriticalPath: the report carries the profile's gap
// and blame and nothing else of it, so the re-run stops at
// profile.AnalyzeTransfers — no critical path — and still encodes the
// primary run's report, byte for byte, on every scenario.
func TestRerunWalksNoCriticalPath(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size corpus runs skipped in -short mode")
	}
	for _, s := range rerunCorpus(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			first, err := Run(s, Opts{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			lean, _, err := simulate(s, Opts{}, false)
			if err != nil {
				t.Fatalf("lean re-run: %v", err)
			}
			if (first.Profile == nil) != (lean.Profile == nil) {
				t.Fatalf("profile present in one run only: primary %v, re-run %v", first.Profile != nil, lean.Profile != nil)
			}
			if p := first.Profile; p != nil {
				if p.Critical.Length != p.Duration || len(p.Critical.Segments) == 0 {
					t.Errorf("primary run's critical path covers %v of %v", p.Critical.Length, p.Duration)
				}
				if c := lean.Profile.Critical; c.Length != 0 || c.Segments != nil || c.ByKind != nil {
					t.Errorf("re-run walked a critical path of %d segments", len(c.Segments))
				}
			}
			report, err := encodeReport(lean)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(report, first.ReportBytes) {
				t.Errorf("re-run's report differs from the primary's (%s vs %s)", short(hashBytes(report)), short(first.ReportHash))
			}
		})
	}
}

// TestTraceHashIsTheStream: on a corpus scenario whose tracks spilled,
// WriteChrome's pieces are AppendChrome's document, and their hash is
// the TraceHash Run reports — the hash of the document no run keeps.
func TestTraceHashIsTheStream(t *testing.T) {
	s, err := LoadFile(corpusDir + "/07-coll-outage.yaml")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// The traced run simulate makes, with the tracer kept.
	mpiCfg, err := s.mpiConfig()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.FaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	mpiCfg.Instrument = &mpi.InstrumentConfig{}
	tr := trace.New(trace.Options{})
	cluster.RunE(cluster.Config{Procs: s.Procs, MPI: mpiCfg, RecordTruth: true, Faults: plan,
		Deadline: s.Deadline.D(), Trace: tr}, s.Workload.program(false))
	spills := 0
	for _, tk := range tr.Tracks() {
		spills += tk.Spills()
	}
	if spills == 0 {
		t.Fatal("the scenario's tracks never spilled — weak fixture")
	}

	doc := tr.AppendChrome(nil)
	var pieces [][]byte
	if err := tr.WriteChrome(writerFunc(func(p []byte) (int, error) {
		pieces = append(pieces, bytes.Clone(p))
		return len(p), nil
	})); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(pieces, nil); !bytes.Equal(got, doc) {
		t.Fatalf("%d pieces join to %d bytes that are not the %d-byte document", len(pieces), len(got), len(doc))
	}
	if len(pieces) < 2 {
		t.Errorf("a %d-byte document went out in %d piece", len(doc), len(pieces))
	}
	if got := hashBytes(doc); got != rr.TraceHash {
		t.Errorf("document hash %s, Run's TraceHash %s", short(got), short(rr.TraceHash))
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
