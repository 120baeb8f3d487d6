// Package profile is the offline analysis engine over the event
// streams the tracing subsystem records: it replays each rank's
// deterministic trace — library call spans, overlap instants, kernel
// scheduling spans, ground-truth wire spans — and turns the paper's
// per-region min/max overlap bounds into *attributed* profiles:
//
//   - blame attribution: every nanosecond of bound gap (the max−min
//     overlap uncertainty of a transfer) is charged to one cause —
//     late initiation, early wait, protocol choice, progress
//     starvation, fault retransmits, stream truncation — per call
//     site (region × library call);
//   - the critical path: a backward walk through the per-rank
//     happens-before graph (compute spans, park spans, wire arrival
//     edges, unpark edges) whose segments tile the whole virtual run
//     time, so its length always equals the run's wall time and its
//     composition says where that wall time went;
//   - cross-rank aggregation: per-site totals, a slack (per-transfer
//     gap) distribution, and top-N offenders.
//
// The replay steps the monitor's own bounds fold (overlap.Fold), so the
// per-site gaps sum — by construction, and verified by tests — to the
// overlap report's max−min bound gap: attribution conserves the
// quantity it explains.
package profile

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/trace"
)

// ErrEmptyTrace marks an input with no span records in any host
// stream — nothing to replay, so analysis tools should fail loudly
// (exit non-zero) instead of emitting a vacuous report. Test with
// errors.Is.
var ErrEmptyTrace = errors.New("empty trace: no span records in any host stream")

// CheckNonEmpty returns ErrEmptyTrace when every host stream is
// missing or span-free (instants alone cannot anchor a replay).
func (in *Input) CheckNonEmpty() error {
	for i := range in.Ranks {
		recs := in.Ranks[i].Recs
		for j := range recs {
			if !recs[j].Instant() {
				return nil
			}
		}
	}
	return ErrEmptyTrace
}

// Schema is the profile JSON schema version.
const Schema = 1

// Blame is non-overlapped-uncertainty time attributed by cause. Each
// field is the summed bound gap (max−min overlap) of the transfers
// charged to that cause.
type Blame struct {
	// FaultRetransmit: the transfer needed at least one retransmission,
	// so its window was stretched by the recovery protocol.
	FaultRetransmit time.Duration `json:"fault_retransmit"`
	// LateInit: only the transfer's completion was observable (the
	// paper's single-stamp case) — initiation happened elsewhere or too
	// late to see, so nothing conclusive separates overlap from waste.
	LateInit time.Duration `json:"late_init"`
	// EarlyWait: the rank spent most of the transfer's in-library window
	// parked in a blocking call — it stopped computing before the wire
	// was done.
	EarlyWait time.Duration `json:"early_wait"`
	// Protocol: the transfer moved under a pipelined rendezvous phase,
	// whose fragment scheduling (not the application's call timing)
	// bounds the achievable overlap.
	Protocol time.Duration `json:"protocol"`
	// Progress: the library only progresses inside calls; the window's
	// gap is dominated by compute periods during which nobody polled.
	Progress time.Duration `json:"progress"`
	// Truncated: the transfer was still open when the stream ended, so
	// the monitor downgraded it to a single-stamp observation.
	Truncated time.Duration `json:"truncated"`
	// Detect: the transfer was in flight when a rank failure was agreed
	// and an epoch cut truncated it — its gap is the price of failure
	// detection interrupting the exchange.
	Detect time.Duration `json:"detect,omitempty"`
	// Agree: the transfer moved inside the recovery agreement phase
	// (region "ft-agree": the survivors' consensus and resynchronization
	// after a failure).
	Agree time.Duration `json:"agree,omitempty"`
	// Rollback: the transfer moved while restoring state — checkpoint
	// writes and restores (regions "ft-checkpoint" and "ft-rollback").
	Rollback time.Duration `json:"rollback,omitempty"`
	// Recompute: the transfer belongs to work replayed after a rollback
	// (region "ft-recompute": steps the survivors had already completed
	// once).
	Recompute time.Duration `json:"recompute,omitempty"`
	// Unknown: residual gap (e.g. the hardware-stamp path's evicted
	// user-interval window) that no cause above explains.
	Unknown time.Duration `json:"unknown"`
}

// Add accumulates o into b.
func (b *Blame) Add(o Blame) {
	b.FaultRetransmit += o.FaultRetransmit
	b.LateInit += o.LateInit
	b.EarlyWait += o.EarlyWait
	b.Protocol += o.Protocol
	b.Progress += o.Progress
	b.Truncated += o.Truncated
	b.Detect += o.Detect
	b.Agree += o.Agree
	b.Rollback += o.Rollback
	b.Recompute += o.Recompute
	b.Unknown += o.Unknown
}

// Total returns the summed attributed time.
func (b Blame) Total() time.Duration {
	return b.FaultRetransmit + b.LateInit + b.EarlyWait + b.Protocol +
		b.Progress + b.Truncated + b.Detect + b.Agree + b.Rollback +
		b.Recompute + b.Unknown
}

// Columns returns the category names and values in fixed order, for
// tables and folded output.
func (b Blame) Columns() ([]string, []time.Duration) {
	return []string{"fault-retransmit", "late-init", "early-wait", "protocol", "progress", "truncated",
			"detect", "agree", "rollback", "recompute", "unknown"},
		[]time.Duration{b.FaultRetransmit, b.LateInit, b.EarlyWait, b.Protocol, b.Progress, b.Truncated,
			b.Detect, b.Agree, b.Rollback, b.Recompute, b.Unknown}
}

// Site aggregates the transfers initiated at one call site — a
// monitored region crossed with the outermost library call that
// initiated (or, for end-only observations, completed) the transfer —
// across all ranks.
type Site struct {
	Region string `json:"region"`
	Op     string `json:"op"`
	Count  int    `json:"count"`
	// DataTransferTime, MinOverlapped and MaxOverlapped mirror the
	// overlap report's measures for this site's transfers.
	DataTransferTime time.Duration `json:"data_transfer_time"`
	MinOverlapped    time.Duration `json:"min_overlapped"`
	MaxOverlapped    time.Duration `json:"max_overlapped"`
	// Gap is MaxOverlapped − MinOverlapped: the uncertainty this site
	// contributes to the report's bounds, fully attributed in Blame.
	Gap time.Duration `json:"gap"`
	// MaxXferGap is the largest single-transfer gap at this site.
	MaxXferGap time.Duration `json:"max_xfer_gap"`
	Blame      Blame         `json:"blame"`
}

// Totals are the profile-wide sums over all sites.
type Totals struct {
	Transfers        int           `json:"transfers"`
	DataTransferTime time.Duration `json:"data_transfer_time"`
	MinOverlapped    time.Duration `json:"min_overlapped"`
	MaxOverlapped    time.Duration `json:"max_overlapped"`
	Gap              time.Duration `json:"gap"`
	Blame            Blame         `json:"blame"`
}

// SlackHist is the distribution of per-transfer bound gaps.
// Buckets[i] counts transfers with gap <= Bounds[i] (and greater than
// the previous bound); the last bucket is open-ended.
type SlackHist struct {
	Bounds  []time.Duration `json:"bounds"`
	Buckets []int64         `json:"buckets"`
}

func slackBounds() []time.Duration {
	return []time.Duration{
		10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	}
}

func (h *SlackHist) observe(gap time.Duration) {
	for i, b := range h.Bounds {
		if gap <= b {
			h.Buckets[i]++
			return
		}
	}
	h.Buckets[len(h.Bounds)]++
}

// PathSegment is one link of the critical path. Segments are reported
// in increasing time order and tile [0, Duration] exactly.
type PathSegment struct {
	// Rank is the proc id the segment runs on; -1 for wire segments.
	Rank int `json:"rank"`
	// Kind is "compute", "wait", "wire" or "idle".
	Kind string `json:"kind"`
	// Label carries the park site, wire phase, or proc name.
	Label string        `json:"label,omitempty"`
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
}

// KindTotal sums critical-path time by segment kind.
type KindTotal struct {
	Kind string        `json:"kind"`
	Time time.Duration `json:"time"`
}

// CriticalPath is the longest dependency chain of the run. Length
// equals the virtual wall time by construction (the walk tiles the
// whole run), which tests assert.
type CriticalPath struct {
	Length   time.Duration `json:"length"`
	ByKind   []KindTotal   `json:"by_kind"`
	Segments []PathSegment `json:"segments"`
}

// EpochTotals are one recovery epoch's slice of the profile-wide
// sums. Summing all epochs reproduces Totals exactly (attribution
// conserves per epoch, not just whole-run).
type EpochTotals struct {
	Epoch            int           `json:"epoch"`
	Transfers        int           `json:"transfers"`
	DataTransferTime time.Duration `json:"data_transfer_time"`
	MinOverlapped    time.Duration `json:"min_overlapped"`
	MaxOverlapped    time.Duration `json:"max_overlapped"`
	Gap              time.Duration `json:"gap"`
	Blame            Blame         `json:"blame"`
}

// Profile is the complete analysis result.
type Profile struct {
	Schema   int           `json:"schema"`
	Ranks    int           `json:"ranks"`
	Duration time.Duration `json:"duration"`
	Totals   Totals        `json:"totals"`
	// Epochs breaks Totals down by recovery epoch (fault-tolerant runs
	// whose streams carry epoch-cut events); empty otherwise.
	Epochs []EpochTotals `json:"epochs,omitempty"`
	// Sites are sorted by Gap descending (the top offenders first),
	// ties broken by region then op.
	Sites    []Site       `json:"sites"`
	Slack    SlackHist    `json:"slack"`
	Critical CriticalPath `json:"critical"`
	// ClockDomain names the clock of the analyzed run's timestamps
	// ("real"); omitted for virtual runs, keeping their JSON
	// byte-identical to prior releases.
	ClockDomain string `json:"clockDomain,omitempty"`
}

// TopSites returns the first n sites (all when n <= 0 or beyond the
// end) — the top offenders, given the sort order.
func (p *Profile) TopSites(n int) []Site {
	if n <= 0 || n > len(p.Sites) {
		n = len(p.Sites)
	}
	return p.Sites[:n]
}

// Input is the evidence Analyze consumes. Build it with FromTracer
// after an in-process run, or FromChromeJSON from an exported trace
// file.
type Input struct {
	// Ranks holds each host track's records in emission order.
	Ranks []RankStream
	// Wire holds the ground-truth wire intervals (NIC tracks).
	Wire []WireSpan
	// Retrans counts retransmissions per transfer id.
	Retrans map[uint64]int
	// Duration is the virtual wall time; 0 derives it from the streams.
	Duration time.Duration
	// Table is the a-priori transfer-time table the run's
	// instrumentation used; required when the streams contain overlap
	// events, because the bounds replay needs the same xfer-time
	// estimates.
	Table *calib.Table
	// RegionNames maps region indices to names (index 0 is the root
	// region); missing entries render as "region#N".
	RegionNames []string
	// Window is the user-interval window for hardware-stamped replays;
	// 0 selects overlap.DefaultUserIntervalWindow.
	Window int
	// ClockDomain names the clock the trace's timestamps were read
	// from ("real"); empty means virtual. Recovered from the
	// trace file's top-level "clockDomain" key (absent in virtual
	// exports) so the replay knows whether bounds are deterministic or
	// wall-clock measurements.
	ClockDomain string
}

// RankStream is one simulated proc's host-track records.
type RankStream struct {
	Rank     int
	Name     string
	Protocol string // from the library's attach instant ("" when none)
	Recs     []trace.Rec
}

// WireSpan is one ground-truth wire interval.
type WireSpan struct {
	ID         uint64
	Src, Dst   int
	Size       int64
	Start, End time.Duration
	Phase      string
}

// Analyze replays the input streams and produces the profile:
// AnalyzeTransfers, then the critical path.
func Analyze(in Input) (*Profile, error) {
	p, err := AnalyzeTransfers(in)
	if err != nil {
		return nil, err
	}
	p.Critical = criticalPath(&in, p.Duration)
	return p, nil
}

// AnalyzeTransfers is Analyze without the critical-path walk: the
// bounds replay and everything folded from it (sites, totals, epochs,
// slack) plus the duration, with Critical left empty. For a caller that
// reads only the attribution — the scenario engine's determinism re-run,
// whose report carries Totals.Gap and Totals.Blame and nothing else.
func AnalyzeTransfers(in Input) (*Profile, error) {
	if len(in.Ranks) == 0 {
		return nil, fmt.Errorf("profile: no host streams in input")
	}
	p := &Profile{
		Schema:      Schema,
		Ranks:       len(in.Ranks),
		Slack:       SlackHist{Bounds: slackBounds(), Buckets: make([]int64, len(slackBounds())+1)},
		ClockDomain: in.ClockDomain,
	}

	wire := &wirePhases{wire: in.Wire}
	sites := make(map[siteKey]*Site)
	var epochs []EpochTotals
	tally := func(x xferObs) {
		k := siteKey{region: regionName(in.RegionNames, x.region), op: x.op}
		s, ok := sites[k]
		if !ok {
			s = &Site{Region: k.region, Op: k.op}
			sites[k] = s
		}
		gap := x.maxOv - x.minOv
		s.Count++
		s.DataTransferTime += x.xt
		s.MinOverlapped += x.minOv
		s.MaxOverlapped += x.maxOv
		s.Gap += gap
		if gap > s.MaxXferGap {
			s.MaxXferGap = gap
		}
		s.Blame.Add(x.blame)
		p.Slack.observe(gap)

		p.Totals.Transfers++
		p.Totals.DataTransferTime += x.xt
		p.Totals.MinOverlapped += x.minOv
		p.Totals.MaxOverlapped += x.maxOv
		p.Totals.Gap += gap
		p.Totals.Blame.Add(x.blame)

		for len(epochs) <= x.epoch {
			epochs = append(epochs, EpochTotals{Epoch: len(epochs)})
		}
		et := &epochs[x.epoch]
		et.Transfers++
		et.DataTransferTime += x.xt
		et.MinOverlapped += x.minOv
		et.MaxOverlapped += x.maxOv
		et.Gap += gap
		et.Blame.Add(x.blame)
	}
	maxEpoch := 0
	for i := range in.Ranks {
		rs := &in.Ranks[i]
		rankEpochs, err := replayRank(rs, &in, wire, tally)
		if err != nil {
			return nil, fmt.Errorf("profile: rank %d (%s): %w", rs.Rank, rs.Name, err)
		}
		if rankEpochs > maxEpoch {
			maxEpoch = rankEpochs
		}
	}
	if maxEpoch > 0 {
		for len(epochs) <= maxEpoch {
			epochs = append(epochs, EpochTotals{Epoch: len(epochs)})
		}
		p.Epochs = epochs
	}

	p.Sites = make([]Site, 0, len(sites))
	for _, s := range sites {
		p.Sites = append(p.Sites, *s)
	}
	sort.Slice(p.Sites, func(i, j int) bool {
		a, b := &p.Sites[i], &p.Sites[j]
		if a.Gap != b.Gap {
			return a.Gap > b.Gap
		}
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		return a.Op < b.Op
	})

	p.Duration = in.Duration
	if p.Duration == 0 {
		p.Duration = maxStreamEnd(&in)
	}
	return p, nil
}

type siteKey struct{ region, op string }

func regionName(names []string, idx int32) string {
	if idx == 0 {
		return "(root)"
	}
	if int(idx) < len(names) && names[idx] != "" {
		return names[idx]
	}
	return fmt.Sprintf("region#%d", idx)
}

func maxStreamEnd(in *Input) time.Duration {
	var end time.Duration
	for i := range in.Ranks {
		recs := in.Ranks[i].Recs
		for j := range recs {
			if e := recs[j].End().Duration(); e > end {
				end = e
			}
		}
	}
	for _, w := range in.Wire {
		if w.End > end {
			end = w.End
		}
	}
	return end
}
