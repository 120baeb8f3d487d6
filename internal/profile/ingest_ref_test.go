package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// referenceFromChromeJSON is the encoding/json ingester FromChromeJSON
// replaced, kept verbatim as the oracle the differential tests and
// FuzzIngestMatchesReference compare against: do not "fix" it, change
// trace.ScanChrome until they agree. The one deliberate divergence is a
// second top-level traceEvents key, which the new reader rejects where
// this one decodes the later array over the earlier one's elements.
func referenceFromChromeJSON(r io.Reader, table *calib.Table) (Input, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Input{}, err
	}
	var raw struct {
		TraceEvents []refChromeEvent `json:"traceEvents"`
		Metrics     json.RawMessage  `json:"metrics"`
		ClockDomain string           `json:"clockDomain"`
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
			ingestNICRec(&in, e.Tid-1, &rec)
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

// refChromeEvent mirrors the exporter's record layout; ts/dur stay
// json.Number so the exact decimal microseconds convert back to
// integer nanoseconds without a float round trip.
type refChromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   json.Number     `json:"ts"`
	Dur  json.Number     `json:"dur"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Args json.RawMessage `json:"args"`
}

func (e *refChromeEvent) toRec() (trace.Rec, trace.Args) {
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
