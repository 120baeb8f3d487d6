package overlap

import (
	"testing"
	"time"

	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

func TestSinkReceivesEveryEvent(t *testing.T) {
	var sink, second EventLog
	c := &fakeClock{}
	m := NewMonitor(Config{
		Clock:     c,
		Table:     flatTable(t, 10*us),
		QueueSize: 16,
		Sink:      Tee(&sink, &second), // two consumers, one stream
	})
	c.at(0)
	m.CallEnter()
	m.XferBegin(1, 1024)
	c.at(5 * us)
	m.XferEnd(1, 0)
	m.CallExit()
	m.Finalize()

	if len(sink) != 4 {
		t.Fatalf("sink got %d events, want 4", len(sink))
	}
	want := []Kind{KindCallEnter, KindXferBegin, KindXferEnd, KindCallExit}
	for i, e := range sink {
		if e.Kind != want[i] {
			t.Fatalf("event %d kind %v, want %v", i, e.Kind, want[i])
		}
	}
	// The second sink of the tee sees the identical stream.
	if len(second) != len(sink) {
		t.Fatalf("second sink got %d events, first got %d", len(second), len(sink))
	}
	for i := range second {
		if second[i] != sink[i] {
			t.Fatalf("event %d differs between sinks: %+v vs %+v", i, second[i], sink[i])
		}
	}
	// A tee with one side missing is the other side, not a wrapper.
	if Tee(nil, &sink) != Sink(&sink) || Tee(&sink, nil) != Sink(&sink) || Tee(nil, nil) != nil {
		t.Fatal("Tee must drop nil sides")
	}
}

func TestOnDrainBatches(t *testing.T) {
	var drains []int
	c := &fakeClock{}
	m := NewMonitor(Config{
		Clock:     c,
		Table:     flatTable(t, 10*us),
		QueueSize: 4,
		OnDrain:   func(n int) { drains = append(drains, n) },
	})
	// Each exchange logs 4 events; the queue drains when it fills.
	for i := 0; i < 3; i++ {
		c.at(time.Duration(i) * 20 * us)
		m.CallEnter()
		m.XferBegin(uint64(i+1), 64)
		c.at(time.Duration(i)*20*us + 5*us)
		m.XferEnd(uint64(i+1), 0)
		m.CallExit()
	}
	m.Finalize()

	total := 0
	for _, n := range drains {
		if n <= 0 {
			t.Fatalf("OnDrain called with non-positive batch %d", n)
		}
		total += n
	}
	if total != 12 {
		t.Errorf("drained %d events in total, want 12 (batches %v)", total, drains)
	}
}

func TestOverlapSinkMapping(t *testing.T) {
	tk := trace.New(trace.Options{}).Track(trace.GroupHost, 0, "rank0")
	m := NewMonitor(Config{Clock: &fakeClock{}, Table: flatTable(t, 10*us)})
	m.PushRegion("r")
	s := &trackSink{tk: tk, mon: m}
	s.OverlapEvent(Event{Kind: KindRegionPush, Region: 1, Stamp: 0})
	s.OverlapEvent(Event{Kind: KindXferBegin, ID: 9, Size: 4096, Stamp: us})
	s.OverlapEvent(Event{Kind: KindXferEnd, ID: 9, Stamp: 5 * us})
	s.OverlapEvent(Event{Kind: KindXferExact, ID: 10, Size: 64, Start: 2 * us, End: 4 * us})
	s.OverlapEvent(Event{Kind: KindCallEnter, Stamp: 6 * us})

	recs := tk.Recs()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4 (call events skipped)", len(recs))
	}
	if recs[0].Name != "region-push" || recs[0].Args.ID != 1 || recs[0].Args.Detail != "r" || recs[0].Start != 0 {
		t.Errorf("region-push wrong: %+v", recs[0])
	}
	if recs[1].Name != "xfer-begin" || recs[1].Args.Size != 4096 || recs[1].Start != vtime.Time(us) {
		t.Errorf("xfer-begin wrong: %+v", recs[1])
	}
	exact := recs[3]
	if exact.Name != "xfer-exact" || exact.Start != vtime.Time(2*us) || exact.End() != vtime.Time(4*us) {
		t.Errorf("xfer-exact must span the physical interval: %+v", exact)
	}
}
