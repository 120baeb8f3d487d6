package scenario

import (
	"strings"
	"testing"
	"time"

	"ovlp/internal/fabric"
)

const sampleYAML = `
name: sample
seed: 7
procs: 4
deadline: 2s
workload:
  kind: exchange
  size: 64K
  reps: 8
  compute: 200us
chaos:
  - label: outage
    at: 1ms
    clear: 3ms
    drop: 0.5
    nodes: [0, 1]
  - label: ramp
    at: 500us
    ramp: 1ms
    bandwidth: 0.25
stalls:
  - node: 2
    start: 1ms
    dur: 100us
assert:
  - check: bounds_valid
  - check: overlap
    region: exchange
    min_pct: 10
    tol_pct: 5
  - check: error_absent
`

func TestParseSampleYAML(t *testing.T) {
	s, err := Parse("sample.yaml", []byte(sampleYAML))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "sample" || s.Seed != 7 || s.Procs != 4 {
		t.Fatalf("header = %+v", s)
	}
	if s.Deadline.D() != 2*time.Second {
		t.Fatalf("deadline = %v", s.Deadline.D())
	}
	if s.Workload.Size.N() != 64<<10 || s.Workload.Compute.D() != 200*time.Microsecond {
		t.Fatalf("workload = %+v", s.Workload)
	}
	if len(s.Chaos) != 2 || len(s.Stalls) != 1 || len(s.Assertions) != 3 {
		t.Fatalf("sections = %d chaos, %d stalls, %d asserts", len(s.Chaos), len(s.Stalls), len(s.Assertions))
	}
	if s.Assertions[2].Error != "any" {
		t.Fatalf("error_absent did not default to any: %+v", s.Assertions[2])
	}

	plan, err := s.FaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || len(plan.Schedule) != 2 || len(plan.Stalls) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	ev := plan.Schedule[0]
	if len(ev.Nodes) != 2 || ev.NodeFaults.DropRate != 0.5 {
		t.Fatalf("outage event = %+v", ev)
	}
	ramp := plan.Schedule[1]
	if ramp.Default == nil || ramp.Default.BandwidthFactor != 0.25 || ramp.Ramp != time.Millisecond {
		t.Fatalf("ramp event = %+v", ramp)
	}
	if plan.Stalls[0].Node != 2 || plan.Stalls[0].End-plan.Stalls[0].Start != 100*1000 {
		t.Fatalf("stall = %+v", plan.Stalls[0])
	}
}

func TestParseJSONRoundTrip(t *testing.T) {
	s, err := Parse("sample.yaml", []byte(sampleYAML))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse("sample.json", b)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, b)
	}
	b2, err := s2.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", b, b2)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		yaml string
		want string
	}{
		{"unknown-field", "name: x\nprocs: 2\nworkload:\n  kind: exchange\n  size: 1K\n  reps: 1\nbogus: 1", "bogus"},
		{"no-name", "procs: 2\nworkload:\n  kind: exchange\n  size: 1K\n  reps: 1", "name is required"},
		{"few-procs", "name: x\nprocs: 1\nworkload:\n  kind: exchange\n  size: 1K\n  reps: 1", "at least 2"},
		{"bad-kind", "name: x\nprocs: 2\nworkload:\n  kind: mystery", "unknown workload kind"},
		{"bad-bench", "name: x\nprocs: 2\nworkload:\n  kind: nas\n  bench: ZZ", "unknown benchmark"},
		{"bad-check", "name: x\nprocs: 2\nworkload:\n  kind: exchange\n  size: 1K\n  reps: 1\nassert:\n  - check: vibes", "unknown check"},
		{"bad-hash", "name: x\nprocs: 2\nworkload:\n  kind: exchange\n  size: 1K\n  reps: 1\nassert:\n  - check: trace_hash\n    hash: abc", "64-hex-digit"},
		{"chaos-node-range", "name: x\nprocs: 2\nworkload:\n  kind: exchange\n  size: 1K\n  reps: 1\nchaos:\n  - at: 0s\n    drop: 0.1\n    nodes: [5]", "names node 5"},
		{"nodes-and-links", "name: x\nprocs: 2\nworkload:\n  kind: exchange\n  size: 1K\n  reps: 1\nchaos:\n  - at: 0s\n    drop: 0.1\n    nodes: [1]\n    links: [0->1]", "both nodes and links"},
		{"assert-rank-range", "name: x\nprocs: 2\nworkload:\n  kind: exchange\n  size: 1K\n  reps: 1\nassert:\n  - check: overlap\n    min_pct: 1\n    rank: 9", "outside"},
		{"stall-no-dur", "name: x\nprocs: 2\nworkload:\n  kind: exchange\n  size: 1K\n  reps: 1\nstalls:\n  - node: 0\n    start: 1ms", "positive dur"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.name+".yaml", []byte(c.yaml))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestMinProcsCoversChaosScope(t *testing.T) {
	s := &Scenario{
		Procs:  8,
		Chaos:  []ChaosEvent{{Links: []string{"5->6"}}},
		Stalls: []Stall{{Node: 3}},
	}
	if got := s.MinProcs(); got != 7 {
		t.Fatalf("MinProcs = %d, want 7", got)
	}
}

func TestFaultFlagSugarEquivalence(t *testing.T) {
	// The faultflag sugar and a one-event scenario schedule must compile
	// to equivalent plans (shared effective() semantics).
	s := &Scenario{
		Name: "sugar", Seed: 3, Procs: 2,
		Workload: Workload{Kind: "exchange", Size: 1 << 10, Reps: 1},
		Chaos:    []ChaosEvent{{Drop: 0.1, Jitter: Dur(2 * time.Microsecond)}},
	}
	plan, err := s.FaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Schedule) != 1 {
		t.Fatalf("schedule = %+v", plan.Schedule)
	}
	fe := plan.Schedule[0]
	want := fabric.LinkFaults{DropRate: 0.1, JitterMax: 2 * time.Microsecond}
	if fe.Default == nil || *fe.Default != want || fe.At != 0 || fe.Clear != 0 {
		t.Fatalf("event = %+v", fe)
	}
}
