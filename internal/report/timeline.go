package report

import (
	"fmt"
	"io"
	"time"

	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
)

// Timeline rendering: an ASCII Gantt of each rank's activity —
// computing versus inside the communication library — with a second
// lane showing when that rank's NIC had data on the wire (from the
// fabric's ground-truth log). Laying the two lanes side by side makes
// achieved overlap visible at a glance: wire activity above '.'
// (computation) is hidden communication; above '#' (library time) it
// is exposed.

// TimelineConfig parameterizes RenderTimeline.
type TimelineConfig struct {
	// Width is the number of character buckets (default 100).
	Width int
	// Duration is the run length; 0 derives it from the inputs.
	Duration time.Duration
}

const (
	laneLib     = '#' // majority of the bucket inside library calls
	laneCompute = '.' // majority computing
	laneWire    = '=' // data from this rank's NIC on the wire
	laneIdle    = ' '
)

// RenderTimeline writes the activity chart. traces[r] is rank r's
// event stream (captured via overlap.Config.Sink); transfers is the
// fabric's ground-truth log.
func RenderTimeline(w io.Writer, traces []overlap.EventLog, transfers []fabric.Transfer, cfg TimelineConfig) error {
	width := cfg.Width
	if width <= 0 {
		width = 100
	}
	dur := cfg.Duration
	if dur == 0 {
		for _, evs := range traces {
			if n := len(evs); n > 0 && evs[n-1].Stamp > dur {
				dur = evs[n-1].Stamp
			}
		}
		for _, tr := range transfers {
			if d := tr.End.Duration(); d > dur {
				dur = d
			}
		}
	}
	if dur <= 0 {
		return fmt.Errorf("report: empty timeline")
	}
	bucket := dur / time.Duration(width)
	if bucket <= 0 {
		bucket = time.Nanosecond
	}

	if _, err := fmt.Fprintf(w, "timeline: %v total, %v per column ('%c' library, '%c' compute, '%c' wire)\n",
		dur, bucket, laneLib, laneCompute, laneWire); err != nil {
		return err
	}
	for rank, evs := range traces {
		host := hostLane(evs, dur, width)
		wire := wireLane(transfers, rank, dur, width)
		if _, err := fmt.Fprintf(w, "rank %-3d host |%s|\n         wire |%s|\n",
			rank, string(host), string(wire)); err != nil {
			return err
		}
	}
	return nil
}

// hostLane buckets library occupancy per column.
func hostLane(evs []overlap.Event, dur time.Duration, width int) []rune {
	libTime := make([]time.Duration, width)
	bucket := dur / time.Duration(width)
	if bucket <= 0 {
		bucket = time.Nanosecond
	}
	addLib := func(from, to time.Duration) {
		if to > dur {
			to = dur
		}
		for t := from; t < to; {
			i := int(t / bucket)
			if i >= width {
				break
			}
			end := time.Duration(i+1) * bucket
			if end > to {
				end = to
			}
			libTime[i] += end - t
			t = end
		}
	}
	depth := 0
	var enter time.Duration
	for _, e := range evs {
		switch e.Kind {
		case overlap.KindCallEnter:
			if depth == 0 {
				enter = e.Stamp
			}
			depth++
		case overlap.KindCallExit:
			depth--
			if depth == 0 {
				addLib(enter, e.Stamp)
			}
		}
	}
	if depth > 0 {
		addLib(enter, dur)
	}
	lane := make([]rune, width)
	for i := range lane {
		if libTime[i] > bucket/2 {
			lane[i] = laneLib
		} else {
			lane[i] = laneCompute
		}
	}
	return lane
}

// wireLane marks buckets during which the rank's NIC sourced data.
func wireLane(transfers []fabric.Transfer, rank int, dur time.Duration, width int) []rune {
	lane := make([]rune, width)
	for i := range lane {
		lane[i] = laneIdle
	}
	bucket := dur / time.Duration(width)
	if bucket <= 0 {
		bucket = time.Nanosecond
	}
	for _, tr := range transfers {
		if int(tr.Src) != rank {
			continue
		}
		from := int(tr.Start.Duration() / bucket)
		to := int(tr.End.Duration() / bucket)
		for i := from; i <= to && i < width; i++ {
			if i >= 0 {
				lane[i] = laneWire
			}
		}
	}
	return lane
}
