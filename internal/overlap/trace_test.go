package overlap

import (
	"strings"
	"testing"
)

func TestFormatTrace(t *testing.T) {
	var events EventLog
	c := &fakeClock{}
	m := NewMonitor(Config{
		Clock:     c,
		Table:     flatTable(t, 10*us),
		QueueSize: 16,
		Sink:      &events,
	})
	c.at(0)
	m.PushRegion("x")
	m.CallEnter()
	m.XferBegin(1, 2<<20)
	c.at(5 * us)
	m.CallExit()
	c.at(20 * us)
	m.CallEnter()
	m.XferEnd(1, 0)
	m.XferExact(2, 512, 3*us, 9*us)
	c.at(25 * us)
	m.CallExit()
	m.PopRegion()
	m.EpochCut()
	m.Finalize()

	var b strings.Builder
	if err := FormatTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"CALL_ENTER", "CALL_EXIT", "XFER_BEGIN  id=1", "XFER_END    id=1", "XFER_EXACT  id=2",
		"REGION_PUSH -> 1", "REGION_POP  -> 0", "EPOCH_CUT", "2.0MiB", "512B",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// One line per event, every kind named.
	if got := strings.Count(out, "\n"); got != len(events) {
		t.Errorf("%d lines for %d events", got, len(events))
	}
}

func TestFormatSizeUnits(t *testing.T) {
	cases := map[int64]string{
		100:     "100B",
		2048:    "2.0KiB",
		3 << 20: "3.0MiB",
	}
	for n, want := range cases {
		if got := formatSize(n); got != want {
			t.Errorf("formatSize(%d) = %q, want %q", n, got, want)
		}
	}
}
