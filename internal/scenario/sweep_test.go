package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ovlp/internal/coll"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/progress"
)

const specHead = "name: s\nprocs: 2\ntitle: t\ntable: [compute, s.min%]\n"

// TestSpecAxes: points are the product of the axes, first axis
// outermost; a scalar value replaces the key its axis names, a mapping
// value each of its own keys, top-level scenario fields at the top and
// every other key in the workload.
func TestSpecAxes(t *testing.T) {
	sp, err := ParseSpec("s.yaml", []byte(specHead+
		"workload: {kind: micro, pair: isend-irecv, size: 1K, reps: 1}\nsweep:\n"+
		"  - run: [{protocol: direct, pair: send-irecv}, {seed: 3}]\n"+
		"  - compute: [0s, 1us]\n"))
	if err != nil {
		t.Fatal(err)
	}
	type pt struct {
		protocol, pair string
		seed           int64
		compute        time.Duration
	}
	var got []pt
	for _, p := range sp.Points {
		got = append(got, pt{p.Protocol, p.Workload.Pair, p.Seed, p.Workload.Compute.D()})
	}
	want := []pt{
		{"direct", "send-irecv", 0, 0}, {"direct", "send-irecv", 0, time.Microsecond},
		{"", "isend-irecv", 3, 0}, {"", "isend-irecv", 3, time.Microsecond},
	}
	if len(got) != len(want) {
		t.Fatalf("points = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSpecRejections: a spec that cannot print its table, or whose
// points would not be measured as written, is rejected by name.
func TestSpecRejections(t *testing.T) {
	micro := "workload: {kind: micro, pair: isend-irecv, size: 1K, reps: 1}\n"
	for _, c := range []struct{ name, src, want string }{
		{"no-title", "name: s\nprocs: 2\ntable: [compute]\n" + micro + "sweep:\n  - compute: [0s]\n", "needs a title"},
		{"no-axes", specHead + micro, "sweep axes"},
		{"two-key-axis", specHead + micro + "sweep:\n  - {compute: [0s], reps: [1]}\n", "one-key mapping"},
		{"empty-axis", specHead + micro + "sweep:\n  - compute: []\n", "has no values"},
		{"too-many-points", specHead + micro + "sweep:\n" + strings.Repeat("  - seed: [1, 2, 3, 4, 5, 6, 7, 8]\n", 5), "over 4096 points"},
		{"unknown-column", "name: s\nprocs: 2\ntitle: t\ntable: [elapsed]\n" + micro + "sweep:\n  - compute: [0s]\n",
			`micro kind measures no column "elapsed"`},
		{"bad-point", specHead + micro + "sweep:\n  - procs: [2, 3]\n", "point 1"},
		{"asserted", specHead + micro + "assert:\n  - check: bounds_valid\nsweep:\n  - compute: [0s]\n", "no assertions"},
		{"mixed-kinds", specHead + "workload: {pair: isend-irecv, method: polling, size: 1K, reps: 1}\n" +
			"sweep:\n  - kind: [micro, comb]\n", "mix workload kinds"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec("s.yaml", []byte(c.src))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}

// TestSpecFaultsReachEveryPoint: a fault plan in SweepOpts replaces the
// points' own and is checked against each point's machine.
func TestSpecFaultsReachEveryPoint(t *testing.T) {
	sp, err := ParseSpec("s.yaml", []byte(specHead+
		"workload: {kind: micro, pair: isend-irecv, size: 1K, reps: 2}\nsweep:\n  - compute: [0s, 1us]\n"))
	if err != nil {
		t.Fatal(err)
	}
	stall := func(node fabric.NodeID) *fabric.FaultPlan {
		return &fabric.FaultPlan{Stalls: []fabric.StallWindow{{Node: node, Start: 0, End: fabric.Forever}}}
	}
	if err := sp.Check(SweepOpts{Faults: stall(5)}); err == nil || !strings.Contains(err.Error(), "names node 5") {
		t.Errorf("stall on node 5 of 2: err = %v", err)
	}
	if _, err := sp.Run(SweepOpts{Faults: stall(1)}); err == nil || !strings.Contains(err.Error(), "s point 0") {
		t.Errorf("a sweep whose receiver's NIC is blackholed: err = %v", err)
	}
}

// TestNasPointCompile: a nas point's overlap, algo, progress, chunk
// and hw_timestamps keys compile to the library configuration and the
// benchmark parameters the NAS driver built from its -overlap,
// -coll-algo, -progress, -coll-chunk and -hw flags; the instrument is
// the run's to attach.
func TestNasPointCompile(t *testing.T) {
	sp, err := ParseSpec("s.yaml", []byte("name: s\nprocs: 4\nprotocol: direct\nhw_timestamps: true\n"+
		"workload: {kind: nas, bench: CG, class: W, iters: 10, overlap: true, algo: ring, progress: thread, chunk: 8K}\n"+
		"title: t\ntable: [min%]\nsweep:\n  - procs: [4]\n"))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sp.compile(SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantMPI := mpi.Config{
		Protocol:     mpi.DirectRDMARead,
		HWTimestamps: true,
		CollAlgo:     coll.Ring,
		CollChunk:    8 << 10,
		Progress:     progress.Config{Mode: progress.Thread, Quantum: progress.DefaultQuantum},
	}
	if got := cs[0].mpi; !reflect.DeepEqual(got, wantMPI) {
		t.Errorf("mpi.Config = %+v, want %+v", got, wantMPI)
	}
	if got, want := cs[0].nas, (nas.Params{Class: nas.ClassW, MaxIters: 10, Overlap: true}); got != want {
		t.Errorf("nas.Params = %+v, want %+v", got, want)
	}
}

// TestHWTimestampsCloseTheBracket: under NIC hardware time-stamps every
// transfer's overlap is known exactly, so a point's min% equals its
// max%, where the classical bounds leave a bracket.
func TestHWTimestampsCloseTheBracket(t *testing.T) {
	src := "name: s\nprocs: 4\nprotocol: direct\nworkload: {kind: nas, bench: LU, iters: 2}\n" +
		"title: t\ntable: [min%, max%]\nsweep:\n  - hw_timestamps: [false, true]\n"
	sp, err := ParseSpec("s.yaml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := sp.Run(SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	bracket := func(i int) (float64, float64) {
		return sp.Value(ms, i, "min%").(float64), sp.Value(ms, i, "max%").(float64)
	}
	if lo, hi := bracket(0); lo >= hi {
		t.Errorf("classical bounds: min%% %.1f, max%% %.1f, want a bracket", lo, hi)
	}
	if lo, hi := bracket(1); lo != hi {
		t.Errorf("hardware time-stamps: min%% %.1f != max%% %.1f", lo, hi)
	}
}
