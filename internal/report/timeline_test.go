package report

import (
	"strings"
	"testing"
	"time"

	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
	"ovlp/internal/vtime"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestRenderTimelineLanes(t *testing.T) {
	// One rank: library [0,25µs) and [75µs,100µs), compute between;
	// one wire transfer [30µs, 60µs) — fully over the compute span.
	traces := []overlap.EventLog{{
		{Kind: overlap.KindCallEnter, Stamp: 0},
		{Kind: overlap.KindCallExit, Stamp: us(25)},
		{Kind: overlap.KindCallEnter, Stamp: us(75)},
		{Kind: overlap.KindCallExit, Stamp: us(100)},
	}}
	transfers := []fabric.Transfer{{
		Src: 0, Dst: 1, Size: 1000,
		Start: vtime.Time(us(30)), End: vtime.Time(us(60)),
	}}
	out := TimelineString(traces, transfers, TimelineConfig{Width: 20, Duration: us(100)})

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	host := lines[1][strings.Index(lines[1], "|")+1:]
	host = host[:strings.Index(host, "|")]
	wire := lines[2][strings.Index(lines[2], "|")+1:]
	wire = wire[:strings.Index(wire, "|")]
	if len(host) != 20 || len(wire) != 20 {
		t.Fatalf("lane widths %d/%d, want 20", len(host), len(wire))
	}
	// Buckets are 5µs: library fills [0,5) and [15,20); compute the
	// middle; wire covers buckets 6..12.
	if host[0] != '#' || host[19] != '#' {
		t.Errorf("library ends wrong: %q", host)
	}
	if host[10] != '.' {
		t.Errorf("middle should be compute: %q", host)
	}
	if wire[7] != '=' || wire[0] != ' ' || wire[19] != ' ' {
		t.Errorf("wire lane wrong: %q", wire)
	}
}

func TestRenderTimelineNestedCalls(t *testing.T) {
	traces := []overlap.EventLog{{
		{Kind: overlap.KindCallEnter, Stamp: 0},
		{Kind: overlap.KindCallEnter, Stamp: us(10)}, // nested
		{Kind: overlap.KindCallExit, Stamp: us(20)},
		{Kind: overlap.KindCallExit, Stamp: us(40)},
	}}
	out := TimelineString(traces, nil, TimelineConfig{Width: 4, Duration: us(40)})
	if !strings.Contains(out, "|####|") {
		t.Errorf("nested calls should render one continuous library span:\n%s", out)
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	out := TimelineString(nil, nil, TimelineConfig{})
	if !strings.Contains(out, "empty") {
		t.Errorf("expected empty-timeline error, got %q", out)
	}
}

func TestRenderTimelineUnclosedCall(t *testing.T) {
	traces := []overlap.EventLog{{
		{Kind: overlap.KindCallEnter, Stamp: us(5)},
	}}
	out := TimelineString(traces, nil, TimelineConfig{Width: 10, Duration: us(10)})
	if !strings.Contains(out, "#####") {
		t.Errorf("open call should extend to the end:\n%s", out)
	}
}
