// Package calib provides the a-priori transfer-time characterization
// the overlap bounds algorithm depends on.
//
// The paper measures data-transfer times for a ladder of message sizes
// with the perf_main utility before the application runs, stores them
// in a disk file, and loads the file into memory during MPI_Init. This
// package implements the table: construction from measured points,
// interpolated lookup, and a plain-text file format.
package calib

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// Point is one measured (message size, transfer time) sample.
type Point struct {
	Size int           // message size in bytes
	Time time.Duration // one-way transfer time
}

// Table maps message sizes to transfer times. Lookups between sample
// points interpolate linearly; lookups beyond the largest sample
// extrapolate using the bandwidth implied by the last segment, and
// lookups below the smallest sample return the first sample's time
// (latency-bound regime).
type Table struct {
	points []Point
	// domain names the clock the samples were measured against
	// ("virtual", "real"); empty means virtual — tables
	// written before clock domains existed carry no marker. A table
	// is only valid for runs on the same kind of clock: virtual-time
	// transfer costs say nothing about a machine's real wire, and
	// vice versa.
	domain string
}

// NewTable builds a table from measured points. Points are sorted by
// size; duplicate sizes and non-positive times are rejected.
func NewTable(points []Point) (*Table, error) {
	if len(points) == 0 {
		return nil, errors.New("calib: empty table")
	}
	ps := append([]Point(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Size < ps[j].Size })
	for i, p := range ps {
		if p.Size < 0 {
			return nil, fmt.Errorf("calib: negative size %d", p.Size)
		}
		if p.Time <= 0 {
			return nil, fmt.Errorf("calib: non-positive time %v for size %d", p.Time, p.Size)
		}
		if i > 0 && ps[i-1].Size == p.Size {
			return nil, fmt.Errorf("calib: duplicate size %d", p.Size)
		}
	}
	return &Table{points: ps}, nil
}

// Points returns a copy of the table's samples in increasing size
// order.
func (t *Table) Points() []Point { return append([]Point(nil), t.points...) }

// Domain returns the clock domain the table was measured in; the
// empty string (a pre-domain table) normalizes to "virtual".
func (t *Table) Domain() string {
	if t.domain == "" {
		return "virtual"
	}
	return t.domain
}

// SetDomain stamps the clock domain the table's samples were measured
// against. It is written as a header line by WriteTo and recovered by
// Read.
func (t *Table) SetDomain(d string) { t.domain = d }

// XferTime returns the estimated transfer time for a message of the
// given size.
func (t *Table) XferTime(size int) time.Duration {
	ps := t.points
	if size <= ps[0].Size {
		return ps[0].Time
	}
	last := ps[len(ps)-1]
	if size >= last.Size {
		if len(ps) == 1 {
			return last.Time
		}
		prev := ps[len(ps)-2]
		return last.Time + extrapolate(prev, last, size-last.Size)
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Size >= size })
	lo, hi := ps[i-1], ps[i]
	frac := float64(size-lo.Size) / float64(hi.Size-lo.Size)
	return lo.Time + time.Duration(frac*float64(hi.Time-lo.Time))
}

func extrapolate(prev, last Point, extra int) time.Duration {
	perByte := float64(last.Time-prev.Time) / float64(last.Size-prev.Size)
	if perByte < 0 {
		perByte = 0
	}
	return time.Duration(perByte * float64(extra))
}

// WriteTo writes the table in its text format: one "size time_ns" pair
// per line, '#' starting comments. A "# clock-domain: <d>" header line
// records the domain for non-virtual tables (virtual tables stay
// byte-identical to the pre-domain format). It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var n int64
	k, err := fmt.Fprintf(w, "# calib transfer-time table: size_bytes time_ns\n")
	n += int64(k)
	if err != nil {
		return n, err
	}
	if d := t.Domain(); d != "virtual" {
		k, err := fmt.Fprintf(w, "# clock-domain: %s\n", d)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	for _, p := range t.points {
		k, err := fmt.Fprintf(w, "%d %d\n", p.Size, p.Time.Nanoseconds())
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Read parses a table from its text format, recovering the
// clock-domain header when present.
func Read(r io.Reader) (*Table, error) {
	sc := bufio.NewScanner(r)
	var points []Point
	domain := ""
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if d, ok := strings.CutPrefix(text, "# clock-domain:"); ok {
			domain = strings.TrimSpace(d)
			continue
		}
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var size, ns int64
		if _, err := fmt.Sscanf(text, "%d %d", &size, &ns); err != nil {
			return nil, fmt.Errorf("calib: line %d: %w", line, err)
		}
		points = append(points, Point{Size: int(size), Time: time.Duration(ns)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t, err := NewTable(points)
	if err != nil {
		return nil, err
	}
	t.domain = domain
	return t, nil
}

// Save writes the table to a file.
func (t *Table) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a table from a file.
func Load(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// StandardSizes is the ladder of message sizes a calibration sweep
// measures: powers of two from 1 byte to 4 MiB plus intermediate
// 1.5x points for better interpolation.
func StandardSizes() []int {
	var sizes []int
	for s := 1; s <= 4<<20; s *= 2 {
		sizes = append(sizes, s)
		if mid := s + s/2; s >= 64 && mid < 4<<20 {
			sizes = append(sizes, mid)
		}
	}
	return sizes
}
