package overlap

import "time"

// The data processing module: the Monitor drains its queue through the
// Fold (fold.go), prices each resolved transfer at once and keeps only
// the running per-region, per-bin measures — profiling, not tracing.

// regionAcc accumulates measures for one monitored region.
type regionAcc struct {
	userTime time.Duration
	libTime  time.Duration
	total    Measures
	bins     []Measures
}

// region returns the accumulator for region index idx, growing the
// table as new regions appear in the event stream.
func (m *Monitor) region(idx int32) *regionAcc {
	for int32(len(m.regions)) <= idx {
		m.regions = append(m.regions, &regionAcc{bins: make([]Measures, len(m.cfg.BinBounds)+1)})
	}
	return m.regions[idx]
}

// binFor maps a message size to its bin index.
func (m *Monitor) binFor(size int64) int {
	for i, b := range m.cfg.BinBounds {
		if size <= int64(b) {
			return i
		}
	}
	return len(m.cfg.BinBounds)
}

// apply folds one queued event in stream order.
func (m *Monitor) apply(e *Event) {
	f := &m.fold
	region, user, lib := f.region, f.cumUser, f.cumLib
	var buf [1]Sample // only a cut resolves more
	out, err := f.Step(e, buf[:0])
	if err != nil {
		panic("overlap: " + err.Error())
	}
	m.settle(region, user, lib, out)
	if e.Kind == KindEpochCut {
		m.markEpoch(e.Stamp, len(out)) // the samples are what the cut truncated
	}
}

// settle charges what the fold's clocks gained since (user, lib) to
// region — the one in force before the step, which is the one the time
// was spent in — and prices the samples the step resolved.
func (m *Monitor) settle(region int32, user, lib time.Duration, out []Sample) {
	acc := m.region(region)
	acc.userTime += m.fold.cumUser - user
	acc.libTime += m.fold.cumLib - lib
	for i := range out {
		s := &out[i]
		xt, minOv, maxOv := s.Bounds(m.cfg.Table)
		r := m.region(s.Region)
		for _, ms := range []*Measures{&r.total, &r.bins[m.binFor(s.Size)]} {
			ms.Count++
			ms.DataTransferTime += xt
			ms.MinOverlapped += minOv
			ms.MaxOverlapped += maxOv
			switch s.Case {
			case CaseSameCall:
				ms.SameCall++
			case CaseBothStamps:
				ms.BothStamps++
			case CaseSingleStamp, CaseTruncated:
				ms.SingleStamp++
			case CaseExact:
				ms.Exact++
			}
		}
	}
}

// markEpoch closes an epoch at stamp with a snapshot of the cumulative
// state; epochReports turns consecutive snapshots into deltas.
func (m *Monitor) markEpoch(stamp time.Duration, truncated int) {
	ep := EpochReport{
		Epoch:           len(m.epochs),
		End:             stamp,
		UserComputeTime: m.fold.cumUser,
		CommCallTime:    m.fold.cumLib,
		Truncated:       truncated,
	}
	for _, acc := range m.regions {
		ep.Total.Add(acc.total)
	}
	m.epochs = append(m.epochs, ep)
}

// epochReports closes the last epoch at stamp and returns the per-epoch
// breakdown. Empty when no cut ever happened.
func (m *Monitor) epochReports(stamp time.Duration) []EpochReport {
	if len(m.epochs) == 0 {
		return nil
	}
	m.markEpoch(stamp, 0)
	for i := len(m.epochs) - 1; i > 0; i-- {
		ep, prev := &m.epochs[i], &m.epochs[i-1]
		ep.Start = prev.End
		ep.UserComputeTime -= prev.UserComputeTime
		ep.CommCallTime -= prev.CommCallTime
		ep.Total.Sub(prev.Total)
	}
	return m.epochs
}

// finish closes the stream at the given stamp: accounts the trailing
// segment, resolves still-open transfers as truncated, and builds the
// report.
func (m *Monitor) finish(stamp time.Duration) *Report {
	f := &m.fold
	region, user, lib := f.region, f.cumUser, f.cumLib
	if err := f.advance(stamp); err != nil {
		panic("overlap: " + err.Error())
	}
	m.settle(region, user, lib, f.Finish(stamp, nil))
	rep := &Report{
		Duration:  stamp,
		BinBounds: append([]int(nil), m.cfg.BinBounds...),
		Epochs:    m.epochReports(stamp),
	}
	if d := m.cfg.ClockDomain; d != "" && d != "virtual" {
		rep.ClockDomain = d
	}
	for i, acc := range m.regions {
		rep.Regions = append(rep.Regions, RegionReport{
			Name:            m.regionNames[i],
			UserComputeTime: acc.userTime,
			CommCallTime:    acc.libTime,
			Total:           acc.total,
			Bins:            append([]Measures(nil), acc.bins...),
		})
	}
	return rep
}
