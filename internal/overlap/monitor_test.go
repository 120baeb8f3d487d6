package overlap

import (
	"strings"
	"testing"
	"time"

	"ovlp/internal/calib"
)

// fakeClock is a manually advanced clock for deterministic unit tests.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }
func (c *fakeClock) at(t time.Duration) { c.t = t }

// flatTable returns a calibration table where every size up to 1 MiB
// costs exactly xt — so expected bounds can be computed by hand.
func flatTable(t *testing.T, xt time.Duration) *calib.Table {
	t.Helper()
	tbl, err := calib.NewTable([]calib.Point{
		{Size: 1, Time: xt},
		{Size: 1 << 20, Time: xt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func newTestMonitor(t *testing.T, clock Clock, xt time.Duration, queue int) *Monitor {
	t.Helper()
	return NewMonitor(Config{Clock: clock, Table: flatTable(t, xt), QueueSize: queue})
}

const us = time.Microsecond

func TestCase1SameCallZeroOverlap(t *testing.T) {
	c := &fakeClock{}
	m := newTestMonitor(t, c, 100*us, 64)

	c.at(0)
	m.CallEnter()
	c.at(10 * us)
	m.XferBegin(1, 1000)
	c.at(120 * us)
	m.XferEnd(1, 1000)
	c.at(130 * us)
	m.CallExit()

	c.at(200 * us)
	rep := m.Finalize()
	tot := rep.Total()
	if tot.Count != 1 || tot.SameCall != 1 {
		t.Fatalf("expected one same-call transfer, got %+v", tot)
	}
	if tot.MinOverlapped != 0 || tot.MaxOverlapped != 0 {
		t.Errorf("case 1 must give zero bounds, got min=%v max=%v",
			tot.MinOverlapped, tot.MaxOverlapped)
	}
	if tot.DataTransferTime != 100*us {
		t.Errorf("data transfer time %v, want 100µs", tot.DataTransferTime)
	}
}

func TestCase2BothStampsHandComputed(t *testing.T) {
	// xt = 100µs. Timeline:
	//   [0,10]    call 1: XferBegin at t=5
	//   [10,70]   user computation (60µs)
	//   [70,100]  call 2: XferEnd at t=90
	// computation_time = 60µs -> max = min(60,100) = 60µs
	// noncomputation_time = (10-5) + (90-70) = 25µs -> min = 100-25 = 75µs
	// min clamps to max: 60µs.
	c := &fakeClock{}
	m := newTestMonitor(t, c, 100*us, 64)

	c.at(0)
	m.CallEnter()
	c.at(5 * us)
	m.XferBegin(1, 1000)
	c.at(10 * us)
	m.CallExit()
	c.at(70 * us)
	m.CallEnter()
	c.at(90 * us)
	m.XferEnd(1, 1000)
	c.at(100 * us)
	m.CallExit()

	rep := m.Finalize()
	tot := rep.Total()
	if tot.BothStamps != 1 {
		t.Fatalf("expected one both-stamps transfer, got %+v", tot)
	}
	if tot.MaxOverlapped != 60*us {
		t.Errorf("max = %v, want 60µs", tot.MaxOverlapped)
	}
	if tot.MinOverlapped != 60*us {
		t.Errorf("min = %v, want 60µs (75µs clamped to max)", tot.MinOverlapped)
	}
}

func TestCase2InsufficientComputation(t *testing.T) {
	// xt = 100µs, only 30µs of computation between the stamps, and
	// 200µs inside the library: max = 30µs, min = max(0, 100-200) = 0.
	c := &fakeClock{}
	m := newTestMonitor(t, c, 100*us, 64)

	c.at(0)
	m.CallEnter()
	m.XferBegin(1, 1000)
	c.at(100 * us) // 100µs in-library after begin
	m.CallExit()
	c.at(130 * us) // 30µs computing
	m.CallEnter()
	c.at(230 * us) // another 100µs in-library
	m.XferEnd(1, 1000)
	m.CallExit()

	tot := m.Finalize().Total()
	if tot.MaxOverlapped != 30*us {
		t.Errorf("max = %v, want 30µs", tot.MaxOverlapped)
	}
	if tot.MinOverlapped != 0 {
		t.Errorf("min = %v, want 0", tot.MinOverlapped)
	}
}

func TestCase3EndOnly(t *testing.T) {
	c := &fakeClock{}
	m := newTestMonitor(t, c, 80*us, 64)

	c.at(0)
	m.CallEnter()
	m.XferEnd(7, 2048) // begin never observed
	c.at(10 * us)
	m.CallExit()

	tot := m.Finalize().Total()
	if tot.SingleStamp != 1 {
		t.Fatalf("expected a single-stamp transfer, got %+v", tot)
	}
	if tot.MinOverlapped != 0 || tot.MaxOverlapped != 80*us {
		t.Errorf("case 3 bounds = %v/%v, want 0/80µs", tot.MinOverlapped, tot.MaxOverlapped)
	}
}

func TestCase3BeginOnlyResolvedAtFinalize(t *testing.T) {
	c := &fakeClock{}
	m := newTestMonitor(t, c, 80*us, 64)

	c.at(0)
	m.CallEnter()
	m.XferBegin(9, 4096) // end never observed
	c.at(10 * us)
	m.CallExit()

	c.at(50 * us)
	tot := m.Finalize().Total()
	if tot.SingleStamp != 1 || tot.Count != 1 {
		t.Fatalf("open transfer not resolved at Finalize: %+v", tot)
	}
	if tot.MinOverlapped != 0 || tot.MaxOverlapped != 80*us {
		t.Errorf("bounds = %v/%v, want 0/80µs", tot.MinOverlapped, tot.MaxOverlapped)
	}
}

func TestUserAndLibraryTimeAccounting(t *testing.T) {
	c := &fakeClock{}
	m := newTestMonitor(t, c, 10*us, 64)

	c.at(10 * us) // 10µs of pre-call computation
	m.CallEnter()
	c.at(25 * us) // 15µs in library
	m.CallExit()
	c.at(40 * us) // 15µs computing
	m.CallEnter()
	c.at(45 * us)
	m.CallExit()
	c.at(50 * us) // 5µs trailing computation

	rep := m.Finalize()
	if got := rep.UserComputeTime(); got != 30*us {
		t.Errorf("user compute = %v, want 30µs", got)
	}
	if got := rep.CommCallTime(); got != 20*us {
		t.Errorf("comm call time = %v, want 20µs", got)
	}
	if rep.Duration != 50*us {
		t.Errorf("duration = %v, want 50µs", rep.Duration)
	}
}

func TestNestedCallsCountOnce(t *testing.T) {
	c := &fakeClock{}
	m := newTestMonitor(t, c, 10*us, 64)

	c.at(0)
	m.CallEnter() // collective
	c.at(5 * us)
	m.CallEnter() // nested point-to-point
	c.at(15 * us)
	m.CallExit()
	c.at(20 * us)
	m.CallExit()

	rep := m.Finalize()
	if got := rep.CommCallTime(); got != 20*us {
		t.Errorf("nested calls should count as one visit: lib time %v, want 20µs", got)
	}
	if got := rep.UserComputeTime(); got != 0 {
		t.Errorf("user compute = %v, want 0", got)
	}
}

func TestCase1AcrossNestedCallBoundary(t *testing.T) {
	// Begin and end both inside one outermost call, with nested
	// enters in between — still case 1.
	c := &fakeClock{}
	m := newTestMonitor(t, c, 10*us, 64)

	c.at(0)
	m.CallEnter()
	m.XferBegin(1, 100)
	m.CallEnter()
	c.at(5 * us)
	m.CallExit()
	m.XferEnd(1, 100)
	c.at(6 * us)
	m.CallExit()

	tot := m.Finalize().Total()
	if tot.SameCall != 1 || tot.MaxOverlapped != 0 {
		t.Errorf("nested-call transfer should be case 1: %+v", tot)
	}
}

func TestQueueDrainPreservesResults(t *testing.T) {
	// Identical event streams through a tiny queue (many drains) and a
	// huge queue (one drain) must produce identical measures.
	drive := func(queueSize int) Measures {
		c := &fakeClock{}
		m := newTestMonitor(t, c, 50*us, queueSize)
		tick := time.Duration(0)
		step := func(d time.Duration) { tick += d; c.at(tick) }
		for i := 0; i < 100; i++ {
			id := uint64(i + 1)
			m.CallEnter()
			step(3 * us)
			m.XferBegin(id, 1000*(i%5+1))
			step(2 * us)
			m.CallExit()
			step(time.Duration(i%7) * 10 * us)
			m.CallEnter()
			step(4 * us)
			m.XferEnd(id, 0)
			step(1 * us)
			m.CallExit()
			step(5 * us)
		}
		return m.Finalize().Total()
	}
	small := drive(4)
	big := drive(4096)
	if small != big {
		t.Fatalf("queue size changed results:\nsmall %+v\nbig   %+v", small, big)
	}
}

func TestRegionsAttribution(t *testing.T) {
	c := &fakeClock{}
	m := newTestMonitor(t, c, 100*us, 64)

	// One transfer inside region "solve", one outside.
	c.at(0)
	m.PushRegion("solve")
	m.CallEnter()
	m.XferBegin(1, 1000)
	c.at(10 * us)
	m.CallExit()
	c.at(60 * us)
	m.CallEnter()
	m.XferEnd(1, 0)
	c.at(70 * us)
	m.CallExit()
	m.PopRegion()

	c.at(100 * us)
	m.CallEnter()
	m.XferBegin(2, 1000)
	m.XferEnd(2, 0)
	c.at(110 * us)
	m.CallExit()

	rep := m.Finalize()
	solve := rep.Region("solve")
	if solve == nil {
		t.Fatal("region 'solve' missing from report")
	}
	if solve.Total.Count != 1 {
		t.Errorf("solve region has %d transfers, want 1", solve.Total.Count)
	}
	if solve.UserComputeTime != 50*us {
		t.Errorf("solve region user time %v, want 50µs", solve.UserComputeTime)
	}
	root := rep.Region("")
	if root.Total.Count != 1 || root.Total.SameCall != 1 {
		t.Errorf("root region should hold the case-1 transfer: %+v", root.Total)
	}
	if got := rep.Total().Count; got != 2 {
		t.Errorf("aggregate count %d, want 2", got)
	}
}

func TestNestedRegions(t *testing.T) {
	c := &fakeClock{}
	m := newTestMonitor(t, c, 10*us, 64)
	c.at(0)
	m.PushRegion("outer")
	c.at(10 * us)
	m.PushRegion("inner")
	c.at(30 * us) // 20µs of computation inside inner
	m.PopRegion()
	c.at(40 * us) // 10µs more in outer
	m.PopRegion()
	rep := m.Finalize()
	if got := rep.Region("inner").UserComputeTime; got != 20*us {
		t.Errorf("inner user time %v, want 20µs", got)
	}
	if got := rep.Region("outer").UserComputeTime; got != 20*us {
		t.Errorf("outer user time %v, want 20µs (10 before + 10 after inner)", got)
	}
}

func TestSizeBinning(t *testing.T) {
	c := &fakeClock{}
	m := NewMonitor(Config{
		Clock:     c,
		Table:     flatTable(t, 10*us),
		QueueSize: 64,
		BinBounds: []int{1000, 100000},
	})
	c.at(0)
	m.CallEnter()
	m.XferEnd(1, 500)    // bin 0
	m.XferEnd(2, 1000)   // bin 0 (inclusive bound)
	m.XferEnd(3, 1001)   // bin 1
	m.XferEnd(4, 500000) // bin 2 (open-ended)
	c.at(us)
	m.CallExit()
	rep := m.Finalize()
	bins := rep.Regions[0].Bins
	if bins[0].Count != 2 || bins[1].Count != 1 || bins[2].Count != 1 {
		t.Errorf("bin counts = %d/%d/%d, want 2/1/1", bins[0].Count, bins[1].Count, bins[2].Count)
	}
}

func TestNilMonitorIsNoop(t *testing.T) {
	var m *Monitor
	m.CallEnter()
	m.CallExit()
	m.XferBegin(1, 10)
	m.XferEnd(1, 10)
	m.PushRegion("x")
	m.PopRegion()
	if rep := m.Finalize(); rep != nil {
		t.Fatal("nil monitor should finalize to nil")
	}
}

func TestChargeAccounting(t *testing.T) {
	var charged time.Duration
	c := &fakeClock{}
	m := NewMonitor(Config{
		Clock:     c,
		Table:     flatTable(t, 10*us),
		QueueSize: 4,
		Charge:    func(d time.Duration) { charged += d },
	})
	for i := 0; i < 4; i++ { // exactly fills the queue once
		m.CallEnter()
		m.CallExit()
	}
	// 8 events logged at 40ns each; at push #4 the queue drained 4
	// events at 25ns, then 4 more events re-filled it and drained
	// again at #8.
	want := 8*40*time.Nanosecond + 8*25*time.Nanosecond
	if charged != want {
		t.Errorf("charged %v, want %v", charged, want)
	}
}

func TestMisusePanics(t *testing.T) {
	c := &fakeClock{}
	cases := map[string]func(){
		"exit without enter": func() { newTestMonitor(t, c, us, 8).CallExit() },
		"pop without push":   func() { newTestMonitor(t, c, us, 8).PopRegion() },
		"finalize in call": func() {
			m := newTestMonitor(t, c, us, 8)
			m.CallEnter()
			m.Finalize()
		},
		"double finalize": func() {
			m := newTestMonitor(t, c, us, 8)
			m.Finalize()
			m.Finalize()
		},
		"event after finalize": func() {
			m := newTestMonitor(t, c, us, 8)
			m.Finalize()
			m.CallEnter()
		},
		"missing clock": func() { NewMonitor(Config{Table: flatTable(t, us)}) },
		"missing table": func() { NewMonitor(Config{Clock: c}) },
		"bad bins": func() {
			NewMonitor(Config{Clock: c, Table: flatTable(t, us), BinBounds: []int{5, 5}})
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

func TestReportWriteTo(t *testing.T) {
	c := &fakeClock{}
	m := newTestMonitor(t, c, 50*us, 64)
	c.at(0)
	m.PushRegion("phase1")
	m.CallEnter()
	m.XferBegin(1, 2000)
	c.at(5 * us)
	m.CallExit()
	c.at(60 * us)
	m.CallEnter()
	m.XferEnd(1, 0)
	c.at(65 * us)
	m.CallExit()
	m.PopRegion()
	rep := m.Finalize()
	rep.Rank = 3

	var b strings.Builder
	if _, err := rep.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"rank 3", "phase1", "data transfer time", "min", "max"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestAggregateAcrossRanks(t *testing.T) {
	mk := func(region string, minOv, maxOv time.Duration) *Report {
		return &Report{
			BinBounds: DefaultBinBounds(),
			Regions: []RegionReport{{
				Name:  region,
				Total: Measures{Count: 1, DataTransferTime: 100 * us, MinOverlapped: minOv, MaxOverlapped: maxOv},
				Bins:  make([]Measures, len(DefaultBinBounds())+1),
			}},
		}
	}
	agg := Aggregate([]*Report{
		mk("a", 10*us, 20*us),
		mk("a", 30*us, 40*us),
		mk("b", 5*us, 5*us),
	})
	a := agg.Region("a")
	if a == nil || a.Total.Count != 2 || a.Total.MinOverlapped != 40*us {
		t.Fatalf("aggregate region a wrong: %+v", a)
	}
	if tot := agg.Total(); tot.Count != 3 || tot.DataTransferTime != 300*us {
		t.Fatalf("aggregate total wrong: %+v", tot)
	}
}

// TestAggregateHeterogeneous exercises the documented merge rule:
// regions are unioned by name, nil reports are skipped, and a report
// with different bin bounds contributes totals but no per-bin detail
// (its bins measure different size intervals).
func TestAggregateHeterogeneous(t *testing.T) {
	mk := func(region string, bounds []int, bin0 Measures) *Report {
		bins := make([]Measures, len(bounds)+1)
		bins[0] = bin0
		var tot Measures
		tot.Add(bin0)
		return &Report{
			BinBounds: bounds,
			Regions:   []RegionReport{{Name: region, Total: tot, Bins: bins}},
		}
	}
	one := Measures{Count: 1, DataTransferTime: 100 * us, MinOverlapped: 10 * us, MaxOverlapped: 20 * us}
	agg := Aggregate([]*Report{
		nil, // dead rank: skipped, not dereferenced
		mk("a", []int{1 << 10, 1 << 20}, one),
		mk("a", []int{1 << 12}, one), // different bounds AND fewer bins than the aggregate
		mk("b", []int{1 << 10, 1 << 20}, one),
	})
	if len(agg.Regions) != 2 {
		t.Fatalf("want regions a and b, got %+v", agg.Regions)
	}
	if got := agg.BinBounds; len(got) != 2 || got[0] != 1<<10 {
		t.Fatalf("aggregate bounds must come from the first non-nil report, got %v", got)
	}
	a := agg.Region("a")
	if a.Total.Count != 2 || a.Total.DataTransferTime != 200*us {
		t.Errorf("region a totals must include the mismatched-bounds report: %+v", a.Total)
	}
	if len(a.Bins) != 3 || a.Bins[0].Count != 1 {
		t.Errorf("region a bin detail must count only matching-bounds reports: %+v", a.Bins)
	}
	if tot := agg.Total(); tot.Count != 3 {
		t.Errorf("aggregate total count = %d, want 3", tot.Count)
	}
}

func TestMeasuresHelpers(t *testing.T) {
	m := Measures{DataTransferTime: 200 * us, MinOverlapped: 50 * us, MaxOverlapped: 150 * us}
	if p := m.MinPercent(); p != 25 {
		t.Errorf("min%% = %v, want 25", p)
	}
	if p := m.MaxPercent(); p != 75 {
		t.Errorf("max%% = %v, want 75", p)
	}
	if n := m.NonOverlapped(); n != 50*us {
		t.Errorf("non-overlapped = %v, want 50µs", n)
	}
	var zero Measures
	if zero.MinPercent() != 0 || zero.MaxPercent() != 0 {
		t.Error("zero measures should give 0 percentages")
	}
}
