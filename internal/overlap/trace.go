package overlap

import (
	"fmt"
	"io"
	"time"
)

// Trace formatting: a human-readable rendering of an event stream
// captured in an EventLog, for debugging instrumented libraries and
// inspecting how the bounds algorithm will see a run. Production
// tracing goes through the trace package's OverlapSink into per-rank
// rings and Chrome export; this text rendering remains the quick
// single-stream view.

// FormatTrace writes one line per event, with a gutter marking
// library (|) versus computation (.) periods and transfer intervals.
func FormatTrace(w io.Writer, events []Event) error {
	inLib := false
	var last time.Duration
	for i, e := range events {
		gap := e.Stamp - last
		mode := "."
		if inLib {
			mode = "|"
		}
		desc := e.Kind.String()
		switch e.Kind {
		case KindCallEnter:
			inLib = true
		case KindCallExit:
			inLib = false
		case KindXferBegin:
			desc = fmt.Sprintf("%-11s id=%d size=%s", desc, e.ID, formatSize(e.Size))
		case KindXferEnd:
			desc = fmt.Sprintf("%-11s id=%d", desc, e.ID)
		case KindXferExact:
			desc = fmt.Sprintf("%-11s id=%d size=%s interval=[%v, %v]",
				desc, e.ID, formatSize(e.Size), e.Start, e.End)
		case KindRegionPush, KindRegionPop:
			desc = fmt.Sprintf("%-11s -> %d", desc, e.Region)
		}
		if _, err := fmt.Fprintf(w, "%6d  %12v  %s +%-12v %s\n",
			i, e.Stamp, mode, gap, desc); err != nil {
			return err
		}
		last = e.Stamp
	}
	return nil
}

func formatSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
