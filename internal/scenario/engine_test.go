package scenario

import (
	"strings"
	"testing"
	"time"
)

func calmScenario() *Scenario {
	return &Scenario{
		Name: "calm", Seed: 1, Procs: 4, Deadline: Dur(2 * time.Second),
		Workload: Workload{
			Kind: "exchange", Size: 64 << 10, Reps: 6,
			Compute: Dur(300 * time.Microsecond),
		},
	}
}

func fptr(f float64) *float64 { return &f }
func iptr(i int) *int         { return &i }

func TestRunCalmScenarioDeterministic(t *testing.T) {
	s := calmScenario()
	a, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Err != nil {
		t.Fatalf("calm run errored: %v", a.Err)
	}
	b, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hash differs across identical runs: %s vs %s", a.TraceHash, b.TraceHash)
	}
	if a.ReportHash != b.ReportHash {
		t.Fatalf("report hash differs: %s vs %s", a.ReportHash, b.ReportHash)
	}
	if string(a.ReportBytes) != string(b.ReportBytes) {
		t.Fatal("report bytes differ")
	}
}

func TestAssertionsPassOnCalmRun(t *testing.T) {
	s := calmScenario()
	s.Assertions = []Assertion{
		{Check: "bounds_valid"},
		{Check: "conservation"},
		{Check: "determinism"},
		{Check: "error_absent", Error: "any"},
		{Check: "duration", Max: Dur(2 * time.Second)},
		{Check: "overlap", Region: RegionExchange, MinPct: fptr(5), TolPct: 2},
	}
	rr, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if vs := Evaluate(rr); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("unexpected violation: %s", v)
		}
	}
}

func TestGoldenHashAssertions(t *testing.T) {
	s := calmScenario()
	rr, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	s.Assertions = []Assertion{
		{Check: "trace_hash", Hash: rr.TraceHash},
		{Check: "report_hash", Hash: rr.ReportHash},
	}
	rr2, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if vs := Evaluate(rr2); len(vs) != 0 {
		t.Fatalf("golden hashes did not verify: %v", vs)
	}
	// A wrong hash must be reported with expected and observed.
	s.Assertions[0].Hash = strings.Repeat("0", 64)
	rr3, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	vs := Evaluate(rr3)
	if len(vs) != 1 || vs[0].Check != "trace_hash" {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Expected != strings.Repeat("0", 64) || vs[0].Observed != rr3.TraceHash {
		t.Fatalf("violation detail = %+v", vs[0])
	}
	// Smoke mode skips golden hashes (different bytes by design).
	smoke, err := Run(s, Opts{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if vs := Evaluate(smoke); len(vs) != 0 {
		t.Fatalf("smoke run must skip golden hashes, got %v", vs)
	}
}

func TestChaosScenarioBoundsStayValid(t *testing.T) {
	s := &Scenario{
		Name: "chaotic", Seed: 9, Procs: 4, Deadline: Dur(5 * time.Second),
		Workload: Workload{
			Kind: "exchange", Size: 32 << 10, Reps: 8,
			Compute: Dur(200 * time.Microsecond),
		},
		Chaos: []ChaosEvent{
			{Label: "outage", At: Dur(500 * time.Microsecond), Clear: Dur(2 * time.Millisecond),
				Drop: 0.3, Nodes: []int{0, 1}},
			{Label: "ramp", At: Dur(time.Millisecond), Ramp: Dur(time.Millisecond),
				Clear: Dur(4 * time.Millisecond), Bandwidth: 0.3},
			{Label: "spike", At: Dur(3 * time.Millisecond), Clear: Dur(3500 * time.Microsecond),
				Jitter: Dur(4 * time.Microsecond), Dup: 0.1},
		},
		Stalls: []Stall{{Node: 2, Start: Dur(time.Millisecond), Dur: Dur(80 * time.Microsecond)}},
		Assertions: []Assertion{
			{Check: "bounds_valid"},
			{Check: "conservation"},
			{Check: "determinism"},
			{Check: "error_absent", Error: "any"},
		},
	}
	rr, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Res.FaultStats.Dropped == 0 && rr.Res.FaultStats.Jittered == 0 &&
		rr.Res.FaultStats.Stalled == 0 {
		t.Fatalf("chaos schedule injected nothing: %+v", rr.Res.FaultStats)
	}
	if vs := Evaluate(rr); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("violation under chaos: %s", v)
		}
	}
}

func TestExpectedErrorScenario(t *testing.T) {
	// A hard partition with a tiny retry budget must surface structured
	// timeouts on both partitioned ranks — and the error assertion turns
	// that into a passing scenario.
	s := &Scenario{
		Name: "partition", Seed: 2, Procs: 2, Deadline: Dur(time.Second),
		Reliable: &ReliableSpec{Timeout: Dur(20 * time.Microsecond), MaxRetries: 2},
		Workload: Workload{Kind: "exchange", Size: 32 << 10, Reps: 2,
			Compute: Dur(50 * time.Microsecond)},
		Chaos: []ChaosEvent{{Label: "partition", At: 0, Drop: 1.0}},
		Assertions: []Assertion{
			{Check: "error", Error: "peer_unreachable", Rank: iptr(0)},
			{Check: "error", Error: "peer_unreachable", Rank: iptr(1)},
			{Check: "error", Error: "any"},
		},
	}
	rr, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Err == nil {
		t.Fatal("partition run finished cleanly?")
	}
	if vs := Evaluate(rr); len(vs) != 0 {
		t.Fatalf("expected-error assertions failed: %v", vs)
	}
	// The same run with error_absent must report the violation.
	s.Assertions = []Assertion{{Check: "error_absent", Error: "any"}}
	rr2, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	vs := Evaluate(rr2)
	found := false
	for _, v := range vs {
		if v.Check == "error_absent" && strings.Contains(v.Observed, "unreachable") {
			found = true
		}
	}
	if !found {
		t.Fatalf("error_absent violation missing: %v", vs)
	}
}

func TestUnexpectedErrorIsViolation(t *testing.T) {
	s := &Scenario{
		Name: "surprise", Seed: 2, Procs: 2, Deadline: Dur(time.Second),
		Reliable: &ReliableSpec{Timeout: Dur(20 * time.Microsecond), MaxRetries: 2},
		Workload: Workload{Kind: "exchange", Size: 32 << 10, Reps: 2,
			Compute: Dur(50 * time.Microsecond)},
		Chaos: []ChaosEvent{{At: 0, Drop: 1.0}},
	}
	rr, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	vs := Evaluate(rr)
	if len(vs) != 1 || vs[0].Check != "clean-run" {
		t.Fatalf("violations = %v", vs)
	}
}

func TestSmokeClampsButKeepsStructure(t *testing.T) {
	s := &Scenario{
		Name: "wide", Seed: 4, Procs: 12, Deadline: Dur(5 * time.Second),
		Workload: Workload{Kind: "exchange", Size: 16 << 10, Reps: 50,
			Compute: Dur(100 * time.Microsecond)},
		// Chaos touching node 5 keeps the smoke machine at >= 6 nodes.
		Chaos: []ChaosEvent{{At: 0, Clear: Dur(time.Millisecond), Drop: 0.2, Nodes: []int{5}}},
	}
	rr, err := Run(s, Opts{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Procs != 6 {
		t.Fatalf("smoke procs = %d, want MinProcs 6", rr.Procs)
	}
	if rr.Err != nil {
		t.Fatalf("smoke run errored: %v", rr.Err)
	}
}

func TestGenerateDeterministicCorpus(t *testing.T) {
	a := Generate(77, 6)
	b := Generate(77, 6)
	if len(a) != 6 {
		t.Fatalf("generated %d scenarios", len(a))
	}
	seen := map[string]bool{}
	for i := range a {
		ja, err := a[i].EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		jb, err := b[i].EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(ja) != string(jb) {
			t.Fatalf("generator not deterministic at %d:\n%s\nvs\n%s", i, ja, jb)
		}
		if seen[a[i].Name] {
			t.Fatalf("duplicate generated name %q", a[i].Name)
		}
		seen[a[i].Name] = true
	}
	// A different seed must change the corpus.
	c := Generate(78, 6)
	jc, _ := c[0].EncodeJSON()
	ja, _ := a[0].EncodeJSON()
	if string(jc) == string(ja) {
		t.Fatal("different seeds produced identical scenarios")
	}
}

func TestGeneratedScenarioRunsCleanInSmoke(t *testing.T) {
	for _, s := range Generate(5, 4) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			rr, err := Run(s, Opts{Smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if vs := Evaluate(rr); len(vs) != 0 {
				for _, v := range vs {
					t.Errorf("violation: %s", v)
				}
			}
		})
	}
}
