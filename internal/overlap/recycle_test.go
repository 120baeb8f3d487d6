package overlap

import (
	"reflect"
	"testing"

	"ovlp/internal/ringpool"
)

// exchange drives m through n overlapped transfers of growing size,
// wrapping the queue several times when n exceeds its capacity, and
// returns the finalized report.
func exchange(m *Monitor, c *fakeClock, n int) *Report {
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		c.t += 10 * us
		m.CallEnter()
		m.XferBegin(id, 512+i)
		c.t += us
		m.CallExit()
		c.t += 50 * us // user computation the transfer may overlap
		m.CallEnter()
		c.t += us
		m.XferEnd(id, 512+i)
		m.CallExit()
	}
	return m.Finalize()
}

// TestMonitorQueueRecycled: a monitor's queue is handed on at Finalize,
// so the next monitor of the same QueueSize allocates none; a monitor
// of another size never receives it; and a recycled queue — full of the
// previous run's events — yields the report a fresh one does.
func TestMonitorQueueRecycled(t *testing.T) {
	queues = ringpool.List[Event]{}
	c := &fakeClock{}
	first := newTestMonitor(t, c, 100*us, 0)
	buf := &first.q.buf[0]
	cold := exchange(first, c, 3*DefaultQueueSize)
	if first.q.buf != nil {
		t.Error("a finalized monitor still holds its queue")
	}
	if got := queues.Bytes(); got == 0 {
		t.Fatal("Finalize listed no queue")
	}

	small := newTestMonitor(t, c, 100*us, 64)
	if len(small.q.buf) != 64 || &small.q.buf[0] == buf {
		t.Fatalf("a 64-event monitor got a %d-event queue (recycled: %v)", len(small.q.buf), &small.q.buf[0] == buf)
	}

	c2 := &fakeClock{}
	second := newTestMonitor(t, c2, 100*us, 0)
	if &second.q.buf[0] != buf {
		t.Error("second default-size monitor allocated a queue instead of taking the finalized one")
	}
	if queues.Bytes() != 0 {
		t.Errorf("free list still holds %d bytes after its only queue was drawn", queues.Bytes())
	}
	if warm := exchange(second, c2, 3*DefaultQueueSize); !reflect.DeepEqual(warm, cold) {
		t.Error("a monitor on a recycled queue reports differently from one on a fresh queue")
	}

	// The small monitor's queue is listed under its own size.
	smallBuf := &small.q.buf[0]
	small.Finalize()
	if got := newTestMonitor(t, c, 100*us, 0); len(got.q.buf) != DefaultQueueSize {
		t.Fatalf("default-size monitor got a %d-event queue", len(got.q.buf))
	}
	if got := newTestMonitor(t, c, 100*us, 64); &got.q.buf[0] != smallBuf {
		t.Error("64-event monitor did not take the finalized 64-event queue")
	}
}
