package overlap

import "time"

// Precise characterization from NIC hardware time-stamps — the
// refinement the paper names as future work ("if it were possible to
// obtain time-stamps on data transfers from the network interface
// card, a more precise characterization of the overlap would be
// possible"). When the substrate can report an operation's physical
// transfer interval, the library calls XferExact instead of the
// XferBegin/XferEnd pair and the fold intersects the interval with the
// process's recent user-computation intervals: the bounds coincide.
//
// To stay a profiler rather than a tracer, only a bounded window of
// recent intervals is retained (Config.UserIntervalWindow). A transfer
// that began before the oldest — outstanding across hundreds of library
// calls — degrades gracefully back to bounds: the unknown prefix counts
// as potentially overlapped in the maximum and not at all in the minimum.

// DefaultUserIntervalWindow is the default number of recent
// user-computation intervals retained for precise intersection.
const DefaultUserIntervalWindow = 512

// XferExact records transfer id of size bytes whose physical interval
// [start, end) is known from hardware time-stamps. It must be called
// from within a library call, at the moment the completion carrying
// the stamps is detected.
func (m *Monitor) XferExact(id uint64, size int, start, end time.Duration) {
	if m == nil {
		return
	}
	if end < start {
		panic("overlap: exact transfer interval inverted")
	}
	m.log(Event{
		Kind:  KindXferExact,
		ID:    id,
		Size:  int64(size),
		Start: start,
		End:   end,
		Stamp: m.cfg.Clock.Now(),
	})
}
