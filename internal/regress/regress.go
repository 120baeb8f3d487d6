// Package regress is the benchmark-regression harness: it measures a
// fixed suite of deterministic workloads (wall time, overlap bounds,
// critical-path length, transfer count), saves them as schema-versioned
// JSON baselines, and compares a fresh measurement against a committed
// baseline.
//
// Because every workload runs on the virtual-time simulator, a
// measurement is a pure function of the code: re-running an unchanged
// tree reproduces the baseline byte for byte, and any drift — not just
// slowdowns — means the model changed and the baseline needs a
// deliberate refresh. Compare therefore flags deviation in either
// direction beyond the tolerance; ovlp benchgate turns its findings
// into a non-zero exit for CI.
package regress

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Schema versions the baseline file layout. Bump it when Entry gains,
// loses or reinterprets a field; Compare refuses mismatched schemas.
const Schema = 1

// Entry is one workload's measurement.
type Entry struct {
	Name string `json:"name"`
	// WallNS is the run's virtual wall time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// MinOverlapPct and MaxOverlapPct are the cross-rank overlap
	// bounds as percentages of data transfer time.
	MinOverlapPct float64 `json:"min_overlap_pct"`
	MaxOverlapPct float64 `json:"max_overlap_pct"`
	// CritPathNS is the profiler's critical-path length in
	// nanoseconds (equal to WallNS when the path tiles the run; kept
	// separately so path-extraction regressions are visible).
	CritPathNS int64 `json:"critical_path_ns"`
	// Transfers counts the suite's data transfers — exact, so any
	// change fails the gate regardless of tolerance.
	Transfers int `json:"transfers"`
}

// Baseline is one suite's measurements.
type Baseline struct {
	Schema  int     `json:"schema"`
	Suite   string  `json:"suite"`
	Entries []Entry `json:"entries"`
}

// EncodeJSON writes the baseline as indented JSON. Field order is
// declaration order and the workloads are deterministic, so the same
// tree always produces the same bytes.
func (b *Baseline) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// DecodeJSON reads a baseline written by EncodeJSON.
func DecodeJSON(r io.Reader) (*Baseline, error) {
	var b Baseline
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("regress: decoding baseline: %w", err)
	}
	return &b, nil
}

// Save writes the baseline to the named file.
func (b *Baseline) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.EncodeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a baseline file written by Save.
func Load(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeJSON(f)
}

// Violation is one structured gate failure. Metric names the gate
// dimension that tripped (the baseline JSON field name, or "schema" /
// "suite" / "entries" for structural mismatches); Delta carries the
// measured deviation in the metric's own unit — percent for
// durations, percentage points for overlap bounds, a raw count for
// transfers. String renders the canonical machine-parseable line CI
// greps for, so scripts can key on suite/entry/metric without parsing
// the human sentence in Detail.
type Violation struct {
	Suite  string  `json:"suite"`
	Entry  string  `json:"entry,omitempty"`
	Metric string  `json:"metric"`
	Want   float64 `json:"want"`
	Got    float64 `json:"got"`
	Delta  float64 `json:"delta"`
	Tol    float64 `json:"tol"`
	Detail string  `json:"detail"`
}

func (v Violation) String() string {
	entry := v.Entry
	if entry == "" {
		entry = "-"
	}
	return fmt.Sprintf("gate suite=%s entry=%s metric=%s want=%g got=%g delta=%+.2f tol=%g: %s",
		v.Suite, entry, v.Metric, v.Want, v.Got, v.Delta, v.Tol, v.Detail)
}

// Compare checks a fresh measurement against a baseline and returns
// one structured Violation per failed check (empty = gate passes).
// Durations fail beyond tolPct percent relative deviation, overlap
// percentages beyond tolPct percentage points absolute, and transfer
// counts on any change.
func Compare(got, want *Baseline, tolPct float64) []Violation {
	var bad []Violation
	fail := func(entry, metric string, wantV, gotV, delta float64, format string, args ...any) {
		bad = append(bad, Violation{
			Suite: want.Suite, Entry: entry, Metric: metric,
			Want: wantV, Got: gotV, Delta: delta, Tol: tolPct,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	if got.Schema != want.Schema {
		fail("", "schema", float64(want.Schema), float64(got.Schema), float64(got.Schema-want.Schema),
			"schema %d measured vs %d baseline: regenerate the baseline", got.Schema, want.Schema)
		return bad
	}
	if got.Suite != want.Suite {
		fail("", "suite", 0, 0, 0, "suite %q measured vs %q baseline", got.Suite, want.Suite)
		return bad
	}
	byName := make(map[string]Entry, len(got.Entries))
	for _, e := range got.Entries {
		byName[e.Name] = e
	}
	for _, w := range want.Entries {
		g, ok := byName[w.Name]
		if !ok {
			fail(w.Name, "entries", 1, 0, -1, "%s: missing from measurement", w.Name)
			continue
		}
		delete(byName, w.Name)
		if d := relPct(g.WallNS, w.WallNS); math.Abs(d) > tolPct {
			fail(w.Name, "wall_ns", float64(w.WallNS), float64(g.WallNS), d,
				"%s: wall time %+.2f%% (%d ns -> %d ns), tolerance %g%%",
				w.Name, d, w.WallNS, g.WallNS, tolPct)
		}
		if d := relPct(g.CritPathNS, w.CritPathNS); math.Abs(d) > tolPct {
			fail(w.Name, "critical_path_ns", float64(w.CritPathNS), float64(g.CritPathNS), d,
				"%s: critical path %+.2f%% (%d ns -> %d ns), tolerance %g%%",
				w.Name, d, w.CritPathNS, g.CritPathNS, tolPct)
		}
		if d := g.MinOverlapPct - w.MinOverlapPct; math.Abs(d) > tolPct {
			fail(w.Name, "min_overlap_pct", w.MinOverlapPct, g.MinOverlapPct, d,
				"%s: min overlap %+.2fpp (%.2f%% -> %.2f%%), tolerance %gpp",
				w.Name, d, w.MinOverlapPct, g.MinOverlapPct, tolPct)
		}
		if d := g.MaxOverlapPct - w.MaxOverlapPct; math.Abs(d) > tolPct {
			fail(w.Name, "max_overlap_pct", w.MaxOverlapPct, g.MaxOverlapPct, d,
				"%s: max overlap %+.2fpp (%.2f%% -> %.2f%%), tolerance %gpp",
				w.Name, d, w.MaxOverlapPct, g.MaxOverlapPct, tolPct)
		}
		if g.Transfers != w.Transfers {
			fail(w.Name, "transfers", float64(w.Transfers), float64(g.Transfers), float64(g.Transfers-w.Transfers),
				"%s: transfers %d -> %d (exact in a deterministic run)",
				w.Name, w.Transfers, g.Transfers)
		}
	}
	extra := make([]string, 0, len(byName))
	for name := range byName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fail(name, "entries", 0, 1, 1, "%s: not in baseline: regenerate with -write", name)
	}
	return bad
}

// relPct is the relative deviation of got from want, in percent.
func relPct(got, want int64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * float64(got-want) / float64(want)
}
