package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// FromTracer builds an Input from a live tracer after an in-process
// run. table is the run's a-priori transfer-time table (see
// cluster.Result.Calib); reports, when available, supply the region
// names (pass nil to fall back to "region#N" labels).
func FromTracer(tr *trace.Tracer, table *calib.Table, reports []*overlap.Report) Input {
	in := Input{Table: table, RegionNames: regionNamesFrom(reports)}
	if d := tr.ClockDomain(); d != "" && d != "virtual" {
		in.ClockDomain = d
	}
	for _, tk := range tr.Tracks() {
		switch tk.Group() {
		case trace.GroupHost:
			in.Ranks = append(in.Ranks, RankStream{Rank: tk.ID(), Name: tk.Name(), Recs: tk.Recs()})
		case trace.GroupNIC:
			for _, rec := range tk.Recs() {
				ingestNICRec(&in, tk.ID(), rec)
			}
		}
	}
	if in.RegionNames == nil {
		harvestRegionNames(&in)
	}
	if g := findGauge(tr.Metrics().Snapshot(), "run.duration_ns"); g > 0 {
		in.Duration = time.Duration(g)
	}
	return in
}

// maxRegionIndex bounds the region table an untrusted trace can make
// harvestRegionNames allocate. Real runs declare a handful of regions;
// anything past the cap is a corrupt or hostile id and is ignored (the
// analyzer falls back to "region#N" labels for unnamed indices).
const maxRegionIndex = 1 << 16

// harvestRegionNames recovers the region index → name mapping from the
// region-push instants' detail field, for inputs with no reports
// attached (offline ingestion, metrics-less runs).
func harvestRegionNames(in *Input) {
	for i := range in.Ranks {
		for _, rec := range in.Ranks[i].Recs {
			if rec.Cat != "overlap" || rec.Name != "region-push" || rec.Args.Detail == "" {
				continue
			}
			if rec.Args.ID >= maxRegionIndex {
				continue
			}
			idx := int(rec.Args.ID)
			for len(in.RegionNames) <= idx {
				in.RegionNames = append(in.RegionNames, "")
			}
			in.RegionNames[idx] = rec.Args.Detail
		}
	}
}

func ingestNICRec(in *Input, node int, rec trace.Rec) {
	switch {
	case rec.Cat == "wire" && rec.Name == "xfer":
		in.Wire = append(in.Wire, WireSpan{
			ID:    rec.Args.ID,
			Src:   node,
			Dst:   rec.Args.Peer,
			Size:  rec.Args.Size,
			Start: rec.Start.Duration(),
			End:   rec.End().Duration(),
			Phase: rec.Args.Phase,
		})
	case rec.Cat == "rel" && (rec.Name == "retransmit" || rec.Name == "repost") && rec.Args.ID != 0:
		if in.Retrans == nil {
			in.Retrans = make(map[uint64]int)
		}
		in.Retrans[rec.Args.ID]++
	}
}

func regionNamesFrom(reports []*overlap.Report) []string {
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		names := make([]string, len(rep.Regions))
		for i := range rep.Regions {
			names[i] = rep.Regions[i].Name
		}
		return names
	}
	return nil
}

func findGauge(s *trace.Snapshot, name string) int64 {
	if s == nil {
		return 0
	}
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// FromChromeJSON rebuilds an Input from a Chrome trace-event file the
// exporter (or cmd/tracecat) wrote. The caller supplies the
// calibration table the run was instrumented with — the file does not
// embed it. Only files produced by this repo's exporter round-trip:
// the reader keys on its category/name vocabulary and pid/tid layout.
func FromChromeJSON(r io.Reader, table *calib.Table) (Input, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Input{}, err
	}
	var raw struct {
		TraceEvents []chromeEvent   `json:"traceEvents"`
		Metrics     json.RawMessage `json:"metrics"`
		ClockDomain string          `json:"clockDomain"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return Input{}, fmt.Errorf("profile: not a trace-event file: %v", err)
	}
	if raw.TraceEvents == nil {
		return Input{}, fmt.Errorf("profile: no traceEvents array in input")
	}
	traceDomain := raw.ClockDomain
	if traceDomain == "" {
		traceDomain = "virtual"
	}
	if table != nil && table.Domain() != traceDomain {
		// A virtual-clock table replayed against wall-clock stamps (or
		// vice versa) yields nonsense bounds; refuse rather than mislead.
		return Input{}, fmt.Errorf("profile: calibration table is %s-clock but the trace is %s-clock; use a table calibrated with the matching backend", table.Domain(), traceDomain)
	}

	in := Input{Table: table}
	if traceDomain != "virtual" {
		in.ClockDomain = traceDomain
	}
	type key struct{ pid, tid int }
	hosts := make(map[key]*RankStream)
	order := []key{}
	names := make(map[key]string)
	for _, e := range raw.TraceEvents {
		k := key{e.Pid, e.Tid}
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				var a struct {
					Name string `json:"name"`
				}
				_ = json.Unmarshal(e.Args, &a)
				names[k] = a.Name
			}
			continue
		case "X", "i":
		default:
			continue
		}
		rec, args := e.toRec()
		switch trace.Group(e.Pid) {
		case trace.GroupHost:
			rs, ok := hosts[k]
			if !ok {
				rs = &RankStream{Rank: e.Tid - 1, Name: names[k]}
				hosts[k] = rs
				order = append(order, k)
			}
			rec.Args = args
			rs.Recs = append(rs.Recs, rec)
		case trace.GroupNIC:
			rec.Args = args
			ingestNICRec(&in, e.Tid-1, rec)
		}
	}
	for _, k := range order {
		rs := hosts[k]
		if rs.Name == "" {
			rs.Name = names[k]
		}
		in.Ranks = append(in.Ranks, *rs)
	}
	harvestRegionNames(&in)
	if len(raw.Metrics) > 0 {
		var snap trace.Snapshot
		if err := json.Unmarshal(raw.Metrics, &snap); err == nil {
			if g := findGauge(&snap, "run.duration_ns"); g > 0 {
				in.Duration = time.Duration(g)
			}
		}
	}
	return in, nil
}

// chromeEvent mirrors the exporter's record layout; ts/dur stay
// json.Number so the exact decimal microseconds convert back to
// integer nanoseconds without a float round trip.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   json.Number     `json:"ts"`
	Dur  json.Number     `json:"dur"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Args json.RawMessage `json:"args"`
}

func (e *chromeEvent) toRec() (trace.Rec, trace.Args) {
	start := vtime.Time(trace.ParseUsec(string(e.Ts)))
	rec := trace.Rec{Cat: e.Cat, Name: e.Name, Start: start}
	if e.Ph == "X" {
		rec.Dur = time.Duration(trace.ParseUsec(string(e.Dur)))
	}
	args := trace.Args{Peer: trace.NoPeer}
	if len(e.Args) > 0 {
		var a struct {
			Peer   *int   `json:"peer"`
			Size   int64  `json:"size"`
			ID     uint64 `json:"id"`
			Detail string `json:"detail"`
			Phase  string `json:"phase"`
		}
		if err := json.Unmarshal(e.Args, &a); err == nil {
			if a.Peer != nil {
				args.Peer = *a.Peer
			}
			args.Size = a.Size
			args.ID = a.ID
			args.Detail = a.Detail
			args.Phase = a.Phase
		}
	}
	return rec, args
}
