package fabric

import (
	"strings"
	"testing"
	"time"

	"ovlp/internal/vtime"
)

func TestScheduleValidate(t *testing.T) {
	drop := LinkFaults{DropEvery: 1}
	cases := []struct {
		name string
		plan FaultPlan
		want string
	}{
		{"clear before activate", FaultPlan{Schedule: []FaultEvent{
			{At: vtime.Time(2 * time.Millisecond), Clear: vtime.Time(time.Millisecond), Default: &drop},
		}}, "clear-before-activate"},
		{"clear at activate", FaultPlan{Schedule: []FaultEvent{
			{Label: "outage", At: vtime.Time(time.Millisecond), Clear: vtime.Time(time.Millisecond), Default: &drop},
		}}, "clear-before-activate"},
		{"negative at", FaultPlan{Schedule: []FaultEvent{
			{At: -1, Default: &drop},
		}}, "negative activation"},
		{"empty scope", FaultPlan{Schedule: []FaultEvent{
			{At: 0},
		}}, "configures nothing"},
		{"negative ramp", FaultPlan{Schedule: []FaultEvent{
			{At: 0, Ramp: -time.Microsecond, Default: &drop},
		}}, "negative ramp"},
		{"bad event default", FaultPlan{Schedule: []FaultEvent{
			{At: 0, Default: &LinkFaults{DropRate: 2}},
		}}, "DropRate"},
		{"bad group faults", FaultPlan{Schedule: []FaultEvent{
			{At: 0, Nodes: []NodeID{1}, NodeFaults: LinkFaults{BandwidthFactor: -1}},
		}}, "BandwidthFactor"},
		{"event self loop", FaultPlan{Schedule: []FaultEvent{
			{At: 0, Links: map[Link]LinkFaults{{2, 2}: drop}},
		}}, "self-loop"},
		{"negative group node", FaultPlan{Schedule: []FaultEvent{
			{At: 0, Nodes: []NodeID{-3}, NodeFaults: drop},
		}}, "negative node"},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error mentioning %q", c.name, err, c.want)
		}
	}

	good := FaultPlan{Seed: 9, Schedule: []FaultEvent{
		{At: 0, Default: &drop}, // activation at t=0 is a valid edge
		{Label: "rack", At: vtime.Time(time.Millisecond), Clear: vtime.Time(2 * time.Millisecond),
			Nodes: []NodeID{0, 1}, NodeFaults: LinkFaults{DropRate: 1}},
		{Label: "ramp", At: 0, Ramp: time.Millisecond, Default: &LinkFaults{BandwidthFactor: 0.25}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if !(&FaultPlan{Schedule: good.Schedule}).Active() {
		t.Fatal("plan with a schedule reports inactive")
	}
}

func TestSetFaultsRejectsScheduleUnknownNodes(t *testing.T) {
	for _, plan := range []*FaultPlan{
		{Schedule: []FaultEvent{{At: 0, Nodes: []NodeID{7}, NodeFaults: LinkFaults{DropRate: 1}}}},
		{Schedule: []FaultEvent{{At: 0, Links: map[Link]LinkFaults{{0, 9}: {DropRate: 1}}}}},
	} {
		sim := vtime.NewSim()
		f := New(sim, 2, DefaultCostModel())
		if err := f.SetFaults(plan); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("SetFaults = %v, want node-range error", err)
		}
	}
}

// scheduleRun posts one 100-byte Send from each (src, at) pair and
// returns the delivered ground-truth transfers plus the fault counters.
// Each sender proc sleeps to its post time, so activation windows are
// probed at exact virtual instants (modulo the post overhead).
func scheduleRun(t *testing.T, nodes int, plan *FaultPlan, posts []struct {
	src, dst NodeID
	at       time.Duration
}) ([]Transfer, FaultStats) {
	t.Helper()
	sim := vtime.NewSim()
	fab := New(sim, nodes, DefaultCostModel())
	if err := fab.SetFaults(plan); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	for _, post := range posts {
		post := post
		sim.Spawn("sender", func(p *vtime.Proc) {
			if d := post.at - p.Now().Duration(); d > 0 {
				p.Compute(d)
			}
			fab.NIC(post.src).Send(p, post.dst, 100, fab.NewXferID(), "payload")
		})
	}
	sim.Run()
	return fab.Transfers(), fab.FaultStats()
}

type postSpec = struct {
	src, dst NodeID
	at       time.Duration
}

// TestScheduleWindowEdges probes a drop-all window's edges: an event
// active from t=0, a bounded window, and an overlapping heal event
// that restores the network mid-outage (the later overlay wins).
func TestScheduleWindowEdges(t *testing.T) {
	dropAll := LinkFaults{DropEvery: 1}

	// Event at t=0 with no Clear: every packet is lost.
	got, stats := scheduleRun(t, 2, &FaultPlan{Schedule: []FaultEvent{{At: 0, Default: &dropAll}}},
		[]postSpec{{0, 1, 0}, {0, 1, time.Millisecond}})
	if len(got) != 0 || stats.Dropped != 2 {
		t.Fatalf("t=0 event: %d delivered, %+v; want everything dropped", len(got), stats)
	}

	// Bounded window [1ms, 2ms): only the mid-window packet is lost.
	window := &FaultPlan{Schedule: []FaultEvent{{
		At: vtime.Time(time.Millisecond), Clear: vtime.Time(2 * time.Millisecond), Default: &dropAll,
	}}}
	got, stats = scheduleRun(t, 2, window, []postSpec{
		{0, 1, 500 * time.Microsecond},  // before activation
		{0, 1, 1500 * time.Microsecond}, // inside
		{0, 1, 2500 * time.Microsecond}, // after clear
	})
	if len(got) != 2 || stats.Dropped != 1 {
		t.Fatalf("bounded window: %d delivered, %+v; want 2 delivered / 1 dropped", len(got), stats)
	}

	// Overlapping windows: outage [1ms, 5ms) with a heal overlay
	// [2ms, 3ms) declared later — packets land only during the heal.
	overlap := &FaultPlan{Schedule: []FaultEvent{
		{Label: "outage", At: vtime.Time(time.Millisecond), Clear: vtime.Time(5 * time.Millisecond), Default: &dropAll},
		{Label: "heal", At: vtime.Time(2 * time.Millisecond), Clear: vtime.Time(3 * time.Millisecond), Default: &LinkFaults{}},
	}}
	got, stats = scheduleRun(t, 2, overlap, []postSpec{
		{0, 1, 1500 * time.Microsecond}, // outage only
		{0, 1, 2500 * time.Microsecond}, // heal overlays the outage
		{0, 1, 3500 * time.Microsecond}, // outage again
	})
	if len(got) != 1 || stats.Dropped != 2 {
		t.Fatalf("overlapping windows: %d delivered, %+v; want only the healed packet through", len(got), stats)
	}
}

// TestScheduleCorrelatedGroup: a rack outage event must fail every
// link touching the group while active and roll the group back to the
// base configuration at Clear, deterministically under a fixed seed.
func TestScheduleCorrelatedGroup(t *testing.T) {
	plan := func() *FaultPlan {
		return &FaultPlan{
			Seed: 17,
			Schedule: []FaultEvent{{
				Label: "rack0", At: vtime.Time(time.Millisecond), Clear: vtime.Time(3 * time.Millisecond),
				Nodes: []NodeID{0, 1}, NodeFaults: LinkFaults{DropRate: 1},
			}},
		}
	}
	posts := []postSpec{
		{0, 1, 500 * time.Microsecond},  // before the outage: delivered
		{0, 1, 1500 * time.Microsecond}, // inside, src in group: dropped
		{2, 1, 1500 * time.Microsecond}, // inside, dst in group: dropped
		{2, 3, 1500 * time.Microsecond}, // inside, outside the group: delivered
		{0, 1, 3500 * time.Microsecond}, // after rollback: delivered
	}
	got, stats := scheduleRun(t, 4, plan(), posts)
	if len(got) != 3 || stats.Dropped != 2 {
		t.Fatalf("group outage: %d delivered, %+v; want 3 delivered / 2 dropped", len(got), stats)
	}

	// Same seed, same plan: byte-identical transfer log and counters.
	again, statsAgain := scheduleRun(t, 4, plan(), posts)
	if len(again) != len(got) || statsAgain != stats {
		t.Fatalf("rerun diverged: %d vs %d transfers, %+v vs %+v", len(again), len(got), statsAgain, stats)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("transfer %d diverged: %+v vs %+v", i, got[i], again[i])
		}
	}
}

// TestScheduleBandwidthRamp: a ramping degradation must stretch wire
// time progressively — early transfers near nominal, late transfers at
// the configured factor.
func TestScheduleBandwidthRamp(t *testing.T) {
	const factor = 0.25
	plan := &FaultPlan{Schedule: []FaultEvent{{
		Label: "ramp", At: 0, Ramp: 10 * time.Millisecond,
		Default: &LinkFaults{BandwidthFactor: factor},
	}}}
	posts := []postSpec{
		{0, 1, 100 * time.Microsecond}, // ~1% into the ramp
		{0, 1, 5 * time.Millisecond},   // midway
		{0, 1, 20 * time.Millisecond},  // past the ramp: full degradation
	}
	got, _ := scheduleRun(t, 2, plan, posts)
	if len(got) != 3 {
		t.Fatalf("ramp run delivered %d transfers, want 3", len(got))
	}
	nominal := DefaultCostModel().Wire(100)
	durs := make([]time.Duration, 3)
	for i, tr := range got {
		durs[i] = (tr.End - tr.Start).Duration() - DefaultCostModel().LinkLatency
	}
	if !(durs[0] < durs[1] && durs[1] < durs[2]) {
		t.Fatalf("ramp not monotone: %v", durs)
	}
	if durs[0] > 2*nominal {
		t.Fatalf("early-ramp wire %v far above nominal %v", durs[0], nominal)
	}
	want := time.Duration(float64(nominal) / factor)
	if durs[2] != want {
		t.Fatalf("post-ramp wire %v, want fully degraded %v", durs[2], want)
	}
}
