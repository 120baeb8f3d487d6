package overlap

import "testing"

// fillQueue stuffs the monitor's ring to capacity behind log's back,
// simulating the backlog that used to crash the run with an overflow
// panic when the next event arrived.
func fillQueue(m *Monitor, c *fakeClock) {
	id := uint64(1000)
	for !m.q.full() {
		c.t += us
		m.q.push(Event{Kind: KindXferBegin, ID: id, Size: 512, Stamp: c.t})
		if m.q.full() {
			return
		}
		c.t += us
		m.q.push(Event{Kind: KindXferEnd, ID: id, Size: 512, Stamp: c.t})
		id++
	}
}

// TestQueueOverflowAutoDrains is the regression test for the
// queue-overflow panic: a full queue must be folded into the running
// measures and the new event accepted, losing nothing.
func TestQueueOverflowAutoDrains(t *testing.T) {
	c := &fakeClock{}
	m := newTestMonitor(t, c, 100*us, 8)
	fillQueue(m, c)

	c.at(100 * us)
	m.CallEnter() // must not panic
	c.at(110 * us)
	m.XferBegin(1, 1000)
	c.at(220 * us)
	m.XferEnd(1, 1000)
	c.at(230 * us)
	m.CallExit()

	c.at(300 * us)
	rep := m.Finalize()
	// 4 queued begin/end pairs plus the post-overflow transfer.
	if got := rep.Total().Count; got != 5 {
		t.Fatalf("report counts %d transfers, want 5 (backlog lost in the drain?)", got)
	}
}
