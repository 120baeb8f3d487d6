package overlap

import (
	"fmt"
	"io"
	"time"
)

// Measures are the framework's derived quantities for a set of
// transfers, per the paper's Sec. 2.2: total (estimated) data transfer
// time, and lower/upper bounds on how much of it was overlapped with
// user computation.
type Measures struct {
	// Count is the number of transfers observed.
	Count int
	// DataTransferTime is the summed a-priori transfer time of all
	// observed transfers.
	DataTransferTime time.Duration
	// MinOverlapped and MaxOverlapped are the summed lower and upper
	// bounds on overlapped transfer time.
	MinOverlapped time.Duration
	MaxOverlapped time.Duration
	// SameCall, BothStamps and SingleStamp count transfers that fell
	// into each case of the bounds algorithm; Exact counts transfers
	// measured precisely from hardware time-stamps (diagnostics).
	SameCall    int
	BothStamps  int
	SingleStamp int
	Exact       int
}

// Add accumulates o into m.
func (m *Measures) Add(o Measures) {
	m.Count += o.Count
	m.DataTransferTime += o.DataTransferTime
	m.MinOverlapped += o.MinOverlapped
	m.MaxOverlapped += o.MaxOverlapped
	m.SameCall += o.SameCall
	m.BothStamps += o.BothStamps
	m.SingleStamp += o.SingleStamp
	m.Exact += o.Exact
}

// Sub removes o from m (the inverse of Add), used to turn cumulative
// snapshots into per-epoch deltas.
func (m *Measures) Sub(o Measures) {
	m.Count -= o.Count
	m.DataTransferTime -= o.DataTransferTime
	m.MinOverlapped -= o.MinOverlapped
	m.MaxOverlapped -= o.MaxOverlapped
	m.SameCall -= o.SameCall
	m.BothStamps -= o.BothStamps
	m.SingleStamp -= o.SingleStamp
	m.Exact -= o.Exact
}

// MinPercent returns the lower overlap bound as a percentage of data
// transfer time (0 when nothing was transferred).
func (m Measures) MinPercent() float64 { return pct(m.MinOverlapped, m.DataTransferTime) }

// MaxPercent returns the upper overlap bound as a percentage of data
// transfer time.
func (m Measures) MaxPercent() float64 { return pct(m.MaxOverlapped, m.DataTransferTime) }

// NonOverlapped returns the minimum duration of communication that was
// not usefully overlapped with computation — the paper's primary
// indicator of performance loss (data transfer time minus the maximum
// overlapped transfer time).
func (m Measures) NonOverlapped() time.Duration {
	return m.DataTransferTime - m.MaxOverlapped
}

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// RegionReport holds one monitored region's measures, with a
// per-message-size-bin breakdown.
type RegionReport struct {
	Name            string
	UserComputeTime time.Duration
	CommCallTime    time.Duration
	Total           Measures
	// Bins[i] covers sizes in (BinBounds[i-1], BinBounds[i]]; the last
	// bin is open-ended.
	Bins []Measures
}

// Report is the per-process output of the framework, produced by
// Monitor.Finalize — the in-memory form of the output file the paper's
// implementation writes per process at application termination.
type Report struct {
	Rank      int // set by the harness
	Duration  time.Duration
	BinBounds []int
	Regions   []RegionReport // index 0 is the root (unnamed) region
	// Epochs breaks the run into recovery epochs delimited by
	// Monitor.EpochCut calls (fault-tolerant runs); empty when no cut
	// ever happened. Epoch totals sum to the whole-run measures. The
	// field is omitted from JSON when empty so failure-free reports are
	// byte-identical to prior releases.
	Epochs []EpochReport `json:",omitempty"`
	// ClockDomain names the clock the report's stamps were read from
	// ("real"); empty — omitted from JSON, so virtual reports
	// are byte-identical to prior releases — means virtual.
	ClockDomain string `json:",omitempty"`
}

// EpochReport is one recovery epoch's slice of the run: the interval
// between consecutive EpochCut calls (epoch 0 starts at time zero; the
// last epoch ends at Finalize). Transfers still open at a cut are
// resolved as truncated single-stamp observations inside the epoch
// that started them, so summing epoch measures reproduces the
// whole-run totals exactly.
type EpochReport struct {
	Epoch           int
	Start, End      time.Duration
	UserComputeTime time.Duration
	CommCallTime    time.Duration
	Total           Measures
	// Truncated counts transfers forcibly closed at this epoch's
	// terminating cut (in-flight when the failure was agreed).
	Truncated int
}

// Region returns the report for the named region, or nil if the
// region never appeared.
func (r *Report) Region(name string) *RegionReport {
	for i := range r.Regions {
		if r.Regions[i].Name == name {
			return &r.Regions[i]
		}
	}
	return nil
}

// Total aggregates all regions into whole-program measures.
func (r *Report) Total() Measures {
	var t Measures
	for i := range r.Regions {
		t.Add(r.Regions[i].Total)
	}
	return t
}

// UserComputeTime returns the whole-program user computation time.
func (r *Report) UserComputeTime() time.Duration {
	var t time.Duration
	for i := range r.Regions {
		t += r.Regions[i].UserComputeTime
	}
	return t
}

// CommCallTime returns the whole-program aggregate time spent
// executing communication calls.
func (r *Report) CommCallTime() time.Duration {
	var t time.Duration
	for i := range r.Regions {
		t += r.Regions[i].CommCallTime
	}
	return t
}

// BinLabel renders the half-open size interval of bin i for the given
// bounds — the canonical bin naming shared by reports, benchmark
// tables and metrics.
func BinLabel(bounds []int, i int) string {
	switch {
	case i == 0:
		return fmt.Sprintf("<=%s", sizeLabel(bounds[0]))
	case i < len(bounds):
		return fmt.Sprintf("%s-%s", sizeLabel(bounds[i-1]), sizeLabel(bounds[i]))
	default:
		return fmt.Sprintf(">%s", sizeLabel(bounds[len(bounds)-1]))
	}
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// WriteTo writes the human-readable per-process report — the analogue
// of the output file the instrumented libraries produce at
// MPI_Finalize.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	fmt.Fprintf(cw, "overlap report: rank %d, run time %v\n", r.Rank, r.Duration)
	tot := r.Total()
	fmt.Fprintf(cw, "  user computation time:   %v\n", r.UserComputeTime())
	fmt.Fprintf(cw, "  communication call time: %v\n", r.CommCallTime())
	fmt.Fprintf(cw, "  data transfer time:      %v over %d transfers\n", tot.DataTransferTime, tot.Count)
	fmt.Fprintf(cw, "  overlapped transfer:     min %v (%.1f%%)  max %v (%.1f%%)\n",
		tot.MinOverlapped, tot.MinPercent(), tot.MaxOverlapped, tot.MaxPercent())
	fmt.Fprintf(cw, "  non-overlapped (min):    %v\n", tot.NonOverlapped())
	for _, reg := range r.Regions {
		name := reg.Name
		if name == "" {
			name = "(root)"
		}
		if reg.Total.Count == 0 && reg.UserComputeTime == 0 && reg.CommCallTime == 0 {
			continue
		}
		fmt.Fprintf(cw, "  region %-18s xfers %6d  data %12v  min %6.1f%%  max %6.1f%%\n",
			name, reg.Total.Count, reg.Total.DataTransferTime,
			reg.Total.MinPercent(), reg.Total.MaxPercent())
		for i, b := range reg.Bins {
			if b.Count == 0 {
				continue
			}
			fmt.Fprintf(cw, "    %-12s xfers %6d  data %12v  min %6.1f%%  max %6.1f%%\n",
				BinLabel(r.BinBounds, i), b.Count, b.DataTransferTime,
				b.MinPercent(), b.MaxPercent())
		}
	}
	return cw.n, cw.err
}

type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// Aggregate sums measures across per-rank reports: whole-job totals
// for each region present in any report, with regions unioned by name
// and nil reports skipped.
//
// Merge rule for heterogeneous inputs: the aggregate adopts the first
// non-nil report's bin bounds. A report whose bounds differ still
// contributes its region and whole-job totals — those are
// bound-independent — but none of its per-bin detail, because its
// bins measure different size intervals and summing them cell-wise
// would mislabel every row.
func Aggregate(reports []*Report) *Report {
	agg := &Report{Rank: -1}
	haveBounds := false
	index := map[string]int{}
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		if !haveBounds {
			agg.BinBounds = append([]int(nil), rep.BinBounds...)
			haveBounds = true
		}
		if rep.Duration > agg.Duration {
			agg.Duration = rep.Duration
		}
		for i := range rep.Epochs {
			ep := &rep.Epochs[i]
			for len(agg.Epochs) <= i {
				agg.Epochs = append(agg.Epochs, EpochReport{Epoch: len(agg.Epochs), Start: -1})
			}
			dst := &agg.Epochs[i]
			// Ranks cut at slightly different instants; the job-level
			// epoch spans the earliest start to the latest end.
			if dst.Start < 0 || ep.Start < dst.Start {
				dst.Start = ep.Start
			}
			if ep.End > dst.End {
				dst.End = ep.End
			}
			dst.UserComputeTime += ep.UserComputeTime
			dst.CommCallTime += ep.CommCallTime
			dst.Total.Add(ep.Total)
			dst.Truncated += ep.Truncated
		}
		binsMatch := equalBounds(rep.BinBounds, agg.BinBounds)
		for _, reg := range rep.Regions {
			i, ok := index[reg.Name]
			if !ok {
				i = len(agg.Regions)
				index[reg.Name] = i
				agg.Regions = append(agg.Regions, RegionReport{
					Name: reg.Name,
					Bins: make([]Measures, len(agg.BinBounds)+1),
				})
			}
			dst := &agg.Regions[i]
			dst.UserComputeTime += reg.UserComputeTime
			dst.CommCallTime += reg.CommCallTime
			dst.Total.Add(reg.Total)
			if !binsMatch {
				continue
			}
			for b := range reg.Bins {
				if b < len(dst.Bins) {
					dst.Bins[b].Add(reg.Bins[b])
				}
			}
		}
	}
	return agg
}

func equalBounds(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
