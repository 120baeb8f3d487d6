package overlap

import (
	"testing"
	"time"
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
