package main

import (
	"flag"
	"testing"
	"time"

	"ovlp/internal/fabric"
	"ovlp/internal/vtime"
)

func parseFaults(t *testing.T, args ...string) (*fabric.FaultPlan, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	ff := registerFaults(fs, true)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse: %v", err)
	}
	return ff.Plan()
}

func TestNoFlagsMeansNoPlan(t *testing.T) {
	p, err := parseFaults(t)
	if err != nil || p != nil {
		t.Fatalf("want nil plan without fault flags, got %v, %v", p, err)
	}
	// A bare seed still means "no faults": nothing to reproduce.
	p, err = parseFaults(t, "-fault-seed", "7")
	if err != nil || p != nil {
		t.Fatalf("seed alone should not activate faults, got %v, %v", p, err)
	}
}

func TestDropAndStallParse(t *testing.T) {
	p, err := parseFaults(t, "-fault-seed", "3", "-drop", "0.1", "-jitter", "2us",
		"-stall", "1@2ms+500us, 0@1ms+forever")
	if err != nil {
		t.Fatal(err)
	}
	// The link knobs compile to a single always-on schedule event (the
	// one-event-scenario sugar), not the legacy Default field.
	if p.Seed != 3 || len(p.Schedule) != 1 || p.Schedule[0].Default == nil {
		t.Fatalf("bad plan: %+v", p)
	}
	if ev := p.Schedule[0]; ev.At != 0 || ev.Clear != 0 ||
		ev.Default.DropRate != 0.1 || ev.Default.JitterMax != 2*time.Microsecond {
		t.Fatalf("bad sugar event: %+v", ev)
	}
	if p.Default != (fabric.LinkFaults{}) {
		t.Fatalf("legacy Default should stay zero, got %+v", p.Default)
	}
	if d := describeFaults(p); d != "faults: seed 3, drop 0.1, jitter 2µs, 2 stall window(s)" {
		t.Fatalf("DescribeFaults = %q", d)
	}
	want := []fabric.StallWindow{
		{Node: 1, Start: vtime.Time(2 * time.Millisecond), End: vtime.Time(2*time.Millisecond + 500*time.Microsecond)},
		{Node: 0, Start: vtime.Time(time.Millisecond), End: fabric.Forever},
	}
	if len(p.Stalls) != 2 || p.Stalls[0] != want[0] || p.Stalls[1] != want[1] {
		t.Fatalf("stalls = %+v, want %+v", p.Stalls, want)
	}
}

func TestBadInputsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-drop", "1.5"},                         // rate out of range -> plan validation
		{"-stall", "zero@1ms+1ms"},               // unparsable node
		{"-stall", "0@1ms"},                      // missing duration
		{"-stall", "0@1ms+never"},                // bad duration word
		{"-drop", "0.1", "-stall", "0@-1ms+1ms"}, // negative start
	} {
		if _, err := parseFaults(t, args...); err == nil {
			t.Errorf("args %v: want error, got none", args)
		}
	}
}
