package comb_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"ovlp/internal/scenario"
)

// Point is one measured sweep entry, read from a comb spec's table.
type Point struct {
	Work, Elapsed time.Duration
	// Base is the exchange time with zero work, the sweep's baseline.
	Base                            time.Duration
	Availability, OverlapEfficiency float64
}

// sweep runs a comb spec: reps exchanges of size bytes under method
// and protocol at each of the works, against a zero-work baseline.
func sweep(t *testing.T, method, protocol, size string, reps int, works ...string) []Point {
	t.Helper()
	src := fmt.Sprintf("name: comb\nprocs: 2\nprotocol: %s\nworkload: {kind: comb, method: %s, size: %s, reps: %d}\n"+
		"title: t\ntable: [work]\nsweep:\n  - work: [0s, %s]\n", protocol, method, size, reps, strings.Join(works, ", "))
	sp, err := scenario.ParseSpec("comb.yaml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := sp.Run(scenario.SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	float := func(i int, col string) float64 {
		f, err := strconv.ParseFloat(sp.Value(ms, i, col).(string), 64)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var pts []Point
	for i := 1; i < len(ms); i++ {
		pts = append(pts, Point{
			Work:              sp.Value(ms, i, "work").(time.Duration),
			Elapsed:           sp.Value(ms, i, "elapsed").(time.Duration),
			Base:              sp.Value(ms, 0, "elapsed").(time.Duration),
			Availability:      float(i, "availability"),
			OverlapEfficiency: float(i, "overlap eff."),
		})
	}
	return pts
}

var works = []string{"250us", "500us", "1ms", "2ms"}

func TestDirectReadPWWCannotHideRendezvous(t *testing.T) {
	// Under post-work-wait the polling library never notices the
	// rendezvous request until Wait, so the read cannot start during
	// the work block: poor overlap no matter how much work is
	// inserted. This is COMB's system-level view of exactly the
	// failure the paper diagnoses in NAS SP.
	pts := sweep(t, "post-work-wait", "direct", "1M", 20, works...)
	last := pts[len(pts)-1]
	if last.OverlapEfficiency > 0.4 {
		t.Errorf("direct read PWW efficiency %.2f at w=%v; the read should not start until Wait",
			last.OverlapEfficiency, last.Work)
	}
	// Availability still grows with work (the denominator grows).
	if pts[0].Availability >= last.Availability {
		t.Errorf("availability should grow with work: %.2f -> %.2f",
			pts[0].Availability, last.Availability)
	}
}

func TestPollingBeatsPWWOnPollingLibrary(t *testing.T) {
	// Slicing the work with Test calls gives the polling progress
	// engine opportunities it otherwise lacks — COMB's system-level
	// view of the same effect the paper exploits with Iprobe in SP.
	run := func(method string) float64 {
		return sweep(t, method, "direct", "1M", 20, "1500us")[0].OverlapEfficiency
	}
	pww, polling := run("post-work-wait"), run("polling")
	if polling < pww+0.3 {
		t.Errorf("polling method efficiency %.2f should far exceed post-work-wait's %.2f",
			polling, pww)
	}
	if polling < 0.7 {
		t.Errorf("polling method efficiency %.2f, want high", polling)
	}
}

func TestPipelinedShowsPoorOverlapCapability(t *testing.T) {
	for _, p := range sweep(t, "post-work-wait", "pipelined", "1M", 20, works...) {
		if p.OverlapEfficiency > 0.35 {
			t.Errorf("pipelined PWW efficiency %.2f at w=%v; only the first fragment should hide",
				p.OverlapEfficiency, p.Work)
		}
	}
}

func TestEagerSmallMessagesLargelyHidden(t *testing.T) {
	// The eager wire time hides behind the work; only the bounce-
	// buffer copies and post overheads remain exposed, so efficiency
	// is substantial but bounded away from 1.
	eager := sweep(t, "post-work-wait", "pipelined", "8K", 20, "200us")[0]
	if eager.OverlapEfficiency < 0.4 {
		t.Errorf("eager exchange efficiency %.2f, want substantial", eager.OverlapEfficiency)
	}
	// And it must beat the rendezvous PWW case by a wide margin.
	rndv := sweep(t, "post-work-wait", "direct", "1M", 20, "1500us")[0]
	if eager.OverlapEfficiency < rndv.OverlapEfficiency+0.2 {
		t.Errorf("eager efficiency %.2f should far exceed rendezvous PWW %.2f",
			eager.OverlapEfficiency, rndv.OverlapEfficiency)
	}
}

func TestBaseConsistency(t *testing.T) {
	for _, p := range sweep(t, "post-work-wait", "direct", "256K", 10, works[:2]...) {
		if p.Base <= 0 || p.Elapsed <= 0 {
			t.Fatalf("degenerate timing: %+v", p)
		}
		if p.Elapsed+time.Microsecond < p.Work {
			t.Fatalf("elapsed %v below inserted work %v", p.Elapsed, p.Work)
		}
	}
}

// TestConfigValidation: a comb spec without a message size, or without
// the zero-work baseline its efficiencies read, is rejected before any
// run.
func TestConfigValidation(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"workload: {kind: comb, method: polling, reps: 1}\nsweep:\n  - work: [0s]\n", "needs a positive size"},
		{"workload: {kind: comb, method: polling, size: 1K, reps: 1}\nsweep:\n  - work: [1ms]\n", "zero-work point"},
		{"workload: {kind: comb, method: spin, size: 1K, reps: 1}\nsweep:\n  - work: [0s]\n", `unknown COMB method "spin"`},
	} {
		_, err := scenario.ParseSpec("x.yaml", []byte("name: x\nprocs: 2\ntitle: t\ntable: [work]\n"+c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want %q", c.src, err, c.want)
		}
	}
}
