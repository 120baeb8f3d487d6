package overlap_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/overlap"
	"ovlp/internal/overlap/oracle"
)

// The seam this file guards: overlap.Fold is the one implementation of
// the bounds rule the product runs (under the Monitor live, under
// profile.RankReplay offline) and overlap/oracle the one independent
// reference. The fuzz target holds them to each other on sound event
// streams and on ones no monitor would log, then a small-queue Monitor
// to both.

// decodeStream turns fuzz bytes into an event stream: two header bytes
// (user-interval window 1..4, queue size 2..64), then four per event —
// kind, time step in 100 ns units (backwards from kind 0xf8 up), two
// operands. All eight kinds occur, ids collide and go unmatched, calls
// nest and exit unentered, cuts land inside calls.
func decodeStream(data []byte) (events []overlap.Event, window, queue int) {
	if len(data) < 2 {
		return nil, 1, 2
	}
	window, queue = 1+int(data[0]%4), 2+int(data[1]%63)
	var now time.Duration
	for p := data[2:]; len(p) >= 4; p = p[4:] {
		k, x, y := p[0], p[2], p[3]
		step := time.Duration(p[1]) * 100 * time.Nanosecond
		if k >= 0xf8 {
			step = -step
		}
		now += step
		e := overlap.Event{Kind: overlap.Kind(k % 8), Stamp: now}
		switch e.Kind {
		case overlap.KindXferExact:
			// A physical interval reaching back past a few calls, and
			// possibly (a sender's view) forward past its detection.
			e.Start = max(0, now-time.Duration(x)*500*time.Nanosecond)
			e.End = e.Start + time.Duration(y)*500*time.Nanosecond
			fallthrough
		case overlap.KindXferBegin, overlap.KindXferEnd:
			e.ID, e.Size = uint64(x%8), 1<<(y%21)
		case overlap.KindRegionPush, overlap.KindRegionPop:
			e.Region = int32(x % 4)
		}
		events = append(events, e)
	}
	return events, window, queue
}

var fuzzTable = func() *calib.Table {
	tbl, err := calib.NewTable([]calib.Point{{Size: 1, Time: 2 * time.Microsecond},
		{Size: 1 << 10, Time: 3 * time.Microsecond}, {Size: 1 << 20, Time: 40 * time.Microsecond}})
	if err != nil {
		panic(err)
	}
	return tbl
}()

// checkFoldAgainstOracle holds a bare fold's samples to the oracle's
// results one by one, and the transfers each cut truncated to the
// oracle's epochs (whose sums are the results', by construction). It
// returns the oracle's replay, nil when both refused the stream.
func checkFoldAgainstOracle(t *testing.T, events []overlap.Event, end time.Duration, table *calib.Table, window int) *oracle.Replay {
	t.Helper()
	o := oracle.Run(events, end, table, window)
	f := overlap.NewFold(window)
	var got []overlap.Sample
	for i := range events {
		var err error
		if got, err = f.Step(&events[i], got); err != nil {
			if len(o.Violations) == 0 {
				t.Fatalf("fold refused a stream the oracle accepts: %v", err)
			}
			return nil
		}
	}
	got = f.Finish(end, got)
	if len(o.Violations) > 0 || len(got) != len(o.Results) {
		t.Fatalf("fold resolved %d transfers, oracle %d with violations %q", len(got), len(o.Results), o.Violations)
	}
	cut := make([]int, len(o.Epochs))
	for i := range got {
		s, want := &got[i], o.Results[i]
		xt, lo, hi := s.Bounds(table)
		if s.ID != want.ID || s.Size != want.Size || s.Case.String() != want.Case || s.Epoch != want.Epoch ||
			xt != want.Xfer || lo != want.Min || hi != want.Max {
			t.Fatalf("transfer %d: fold %+v priced (%v, %v, %v), oracle %+v", i, *s, xt, lo, hi, want)
		}
		if lo < 0 || lo > hi || hi > xt {
			t.Fatalf("transfer %d: malformed bracket 0 <= %v <= %v <= %v", i, lo, hi, xt)
		}
		if s.Cut {
			cut[s.Epoch]++
		}
	}
	for i, ep := range o.Epochs {
		if cut[i] != ep.Truncated {
			t.Fatalf("epoch %d: fold truncated %d transfers at the cut, oracle %d", i, cut[i], ep.Truncated)
		}
	}
	return o
}

// driveMonitor replays events through a Monitor's public API as far as
// its preconditions allow (time moves forwards, exits and pops need
// something to leave, no cut inside a call); log is what it logged.
func driveMonitor(events []overlap.Event, end time.Duration, table *calib.Table, window, queue int) (rep *overlap.Report, log overlap.EventLog) {
	clock := &manualClock{}
	m := overlap.NewMonitor(overlap.Config{Clock: clock, Table: table,
		QueueSize: queue, UserIntervalWindow: window, Sink: &log})
	regions, depth := 0, 0 // open regions and library calls
	for _, e := range events {
		clock.t = max(clock.t, e.Stamp)
		switch e.Kind {
		case overlap.KindCallEnter:
			m.CallEnter()
			depth++
		case overlap.KindCallExit:
			if depth > 0 {
				m.CallExit()
				depth--
			}
		case overlap.KindXferBegin:
			m.XferBegin(e.ID, int(e.Size))
		case overlap.KindXferEnd:
			m.XferEnd(e.ID, int(e.Size))
		case overlap.KindXferExact:
			m.XferExact(e.ID, int(e.Size), e.Start, e.End)
		case overlap.KindRegionPush:
			m.PushRegion(string(rune('a' + e.Region)))
			regions++
		case overlap.KindRegionPop:
			if regions > 0 {
				m.PopRegion()
				regions--
			}
		case overlap.KindEpochCut:
			if depth == 0 {
				m.EpochCut()
			}
		}
	}
	for ; depth > 0; depth-- {
		m.CallExit()
	}
	clock.t = max(clock.t, end)
	return m.Finalize(), log
}

// The seed corpus is testdata/fuzz/FuzzFoldMatchesOracle, one stream
// per corner the fold and the oracle must share (pinned below).
func FuzzFoldMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, window, queue := decodeStream(data)
		var last time.Duration
		for _, e := range events {
			last = max(last, e.Stamp)
		}
		last += time.Microsecond
		checkFoldAgainstOracle(t, events, last, fuzzTable, window)

		// The stream the monitor logged is sound (accepted by both, its
		// computation intervals disjoint): the report must equal the
		// oracle's replay of it, and so the bare fold's, down to both
		// clocks and every epoch; exact transfers lie in their own bounds.
		rep, log := driveMonitor(events, last, fuzzTable, window, queue)
		o := checkFoldAgainstOracle(t, log, rep.Duration, fuzzTable, window)
		if bad := append(o.CheckTotals(rep), o.Inexact...); len(bad) > 0 {
			t.Fatalf("monitor (queue %d, window %d) vs oracle:\n%s", queue, window, strings.Join(bad, "\n"))
		}
	})
}

// TestSeedStreamsHitTheirCorners pins what each committed seed is for,
// so an edit to the encoding cannot quietly turn them into noise: cases,
// epochs, refusal for a backwards stamp, and whether exact bounds
// coincide (=) or an evicted prefix widened them (<).
func TestSeedStreamsHitTheirCorners(t *testing.T) {
	for name, want := range map[string]string{
		"same-call":            "map[both-stamps:1 same-call:1] epochs 1 refused false ",
		"end-only":             "map[both-stamps:1 single-stamp:3] epochs 1 refused false ",
		"cut-with-open":        "map[single-stamp:1 truncated:5] epochs 4 refused false ",
		"evicted-window-exact": "map[exact:4] epochs 1 refused false =<<=",
		"backwards":            "map[both-stamps:1] epochs 1 refused true ",
	} {
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzFoldMatchesOracle", name))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(file)), "\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", name, err)
		}
		events, window, _ := decodeStream([]byte(data))
		o := oracle.Run(events, events[len(events)-1].Stamp+time.Microsecond, fuzzTable, window)
		cases, exact := map[string]int{}, ""
		for _, res := range o.Results {
			cases[res.Case]++
			if res.Case == "exact" {
				exact += map[bool]string{true: "=", false: "<"}[res.Min == res.Max]
			}
		}
		got := fmt.Sprintf("%v epochs %d refused %v %s", cases, len(o.Epochs), len(o.Violations) > 0, exact)
		if got != want {
			t.Errorf("seed %s: %q, want %q", name, got, want)
		}
	}
}
