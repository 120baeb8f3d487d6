package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
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
			recs := tk.Recs()
			for i := range recs {
				ingestNICRec(&in, tk.ID(), &recs[i])
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
		recs := in.Ranks[i].Recs
		for j := range recs {
			rec := &recs[j]
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

func ingestNICRec(in *Input, node int, rec *trace.Rec) {
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
// What counts as a well-formed file is trace.ScanChrome's contract.
func FromChromeJSON(r io.Reader, table *calib.Table) (Input, error) {
	data, err := readAll(r)
	if err != nil {
		return Input{}, err
	}
	in := Input{Table: table}
	hosts := make(map[trackKey]*rankRecs)
	var order []*rankRecs
	names := make(map[trackKey]string)
	var last *rankRecs // the exporter writes a track's records together
	doc, err := trace.ScanChrome(data, func(e *trace.ChromeEvent) error {
		k := trackKey{e.Pid, e.Tid}
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				names[k] = e.MetaName()
			}
			return nil
		case "X", "i":
		default:
			return nil
		}
		switch trace.Group(e.Pid) {
		case trace.GroupHost:
			if last == nil || k != last.key {
				rs, ok := hosts[k]
				if !ok {
					rs = &rankRecs{RankStream: RankStream{Rank: e.Tid - 1, Name: names[k]}, key: k}
					hosts[k] = rs
					order = append(order, rs)
				}
				last = rs
			}
			last.add(e.Rec())
		case trace.GroupNIC:
			rec := e.Rec()
			ingestNICRec(&in, e.Tid-1, &rec)
		}
		return nil
	})
	switch {
	case errors.Is(err, trace.ErrDuplicateTraceEvents):
		return Input{}, fmt.Errorf("profile: %v", err)
	case err != nil:
		return Input{}, fmt.Errorf("profile: not a trace-event file: %v", err)
	case !doc.HasEvents:
		return Input{}, fmt.Errorf("profile: no traceEvents array in input")
	}
	traceDomain := doc.ClockDomain
	if traceDomain == "" {
		traceDomain = "virtual"
	}
	if table != nil && table.Domain() != traceDomain {
		// A virtual-clock table replayed against wall-clock stamps (or
		// vice versa) yields nonsense bounds; refuse rather than mislead.
		return Input{}, fmt.Errorf("profile: calibration table is %s-clock but the trace is %s-clock; use a table calibrated with the matching backend", table.Domain(), traceDomain)
	}
	if traceDomain != "virtual" {
		in.ClockDomain = traceDomain
	}
	for _, rs := range order {
		if rs.Name == "" {
			rs.Name = names[rs.key]
		}
		rs.Recs = rs.flatten()
		in.Ranks = append(in.Ranks, rs.RankStream)
	}
	harvestRegionNames(&in)
	if len(doc.Metrics) > 0 {
		// Once per file and a few KB: the generic decoder will do.
		var snap trace.Snapshot
		if err := json.Unmarshal(doc.Metrics, &snap); err == nil {
			if g := findGauge(&snap, "run.duration_ns"); g > 0 {
				in.Duration = time.Duration(g)
			}
		}
	}
	return in, nil
}

// readAll is io.ReadAll with the buffer sized up front when r can say
// how much it holds — the in-memory readers by Len, a file by Stat —
// because growing from 512 bytes copies a multi-megabyte trace six
// times over. A pipe, or a wrong size, only costs the usual growth.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	// One byte spare, so the Read that reports EOF finds room.
	data := make([]byte, 0, max(size+1, 512))
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return data, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// rankRecs accumulates one host track's records in chunks and flattens
// them once into an exact-size slice (as trace.Track.Recs does), so a
// long track is copied once rather than at every doubling of one slice.
type rankRecs struct {
	RankStream
	key    trackKey
	chunks [][]trace.Rec
}

// trackKey places an event on its track.
type trackKey struct{ pid, tid int }

// Chunk capacities in records: they double from minChunk, so a short
// track stays small, up to maxChunk (about 100 KiB).
const (
	minChunk = 16
	maxChunk = 1024
)

func (rs *rankRecs) add(rec trace.Rec) {
	n := len(rs.chunks)
	if n == 0 || len(rs.chunks[n-1]) == cap(rs.chunks[n-1]) {
		size := minChunk
		if n > 0 {
			size = min(2*cap(rs.chunks[n-1]), maxChunk)
		}
		rs.chunks = append(rs.chunks, make([]trace.Rec, 0, size))
		n++
	}
	rs.chunks[n-1] = append(rs.chunks[n-1], rec)
}

func (rs *rankRecs) flatten() []trace.Rec {
	if len(rs.chunks) == 1 {
		return rs.chunks[0]
	}
	total := 0
	for _, c := range rs.chunks {
		total += len(c)
	}
	flat := make([]trace.Rec, 0, total)
	for _, c := range rs.chunks {
		flat = append(flat, c...)
	}
	return flat
}
