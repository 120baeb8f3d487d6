package diagnose

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/profile"
	"ovlp/internal/timeres"
	"ovlp/internal/trace"
)

// FuzzDiff drives the differential profiler the way ovldiff does: two
// arbitrary trace files, each ingested, profiled and windowed. For any
// pair the ingester accepts, Diff must not panic, its per-cause deltas
// must sum exactly to the gap delta, and a run diffed against itself
// must show no delta and no finding. The seeds are the profile
// package's ingest seeds plus a clean traced run to diff them against.
//
// Run long with: go test -fuzz=FuzzDiff -fuzzminimizetime 5s ./internal/diagnose
func FuzzDiff(f *testing.F) {
	seeds := [][]byte{cleanTrace(f)}
	dir := filepath.Join("..", "profile", "testdata")
	if b, err := os.ReadFile(filepath.Join(dir, "fuzz-seed-trace.json")); err == nil {
		seeds = append(seeds, b)
	} else {
		f.Errorf("profile seed trace missing: %v", err)
	}
	corpus, _ := filepath.Glob(filepath.Join(dir, "fuzz", "FuzzFromChromeJSON", "*"))
	for _, path := range corpus {
		if b, ok := corpusBytes(path); ok {
			seeds = append(seeds, b)
		}
	}
	for _, s := range []string{
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"ph":"X","pid":1,"tid":0,"ts":0,"dur":5,"name":"compute"}]}`,
		`{"traceEvents":[{"ph":"i","pid":1,"tid":0,"ts":-3,"name":"xfer-post","args":{"detail":"id=1 size=-9"}}]}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	for _, b := range seeds {
		f.Add(seeds[0], b)
		f.Add(b, seeds[0])
	}
	table := cluster.Calibrate(fabric.CostModel{}, nil, 0)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, okA := loadRun(a, table)
		rb, okB := loadRun(b, table)
		if !okA || !okB {
			return
		}
		d, err := Diff(ra, rb)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, c := range d.Causes {
			sum += c.DeltaNS
		}
		if want := d.GapBNS - d.GapANS; sum != want || d.GapDeltaNS != want {
			t.Fatalf("cause deltas sum to %d, gap delta field %d, gap moved %d", sum, d.GapDeltaNS, want)
		}
		self, err := Diff(ra, ra)
		if err != nil {
			t.Fatal(err)
		}
		if self.WallDeltaNS != 0 || self.GapDeltaNS != 0 ||
			len(self.Causes)+len(self.Sites)+len(self.Windows)+len(self.Findings) != 0 {
			t.Fatalf("self-diff not empty: %+v", self)
		}
	})
}

// loadRun is ovldiff's per-file path; ok is false for input the
// ingester, the profiler or the windowing rejects.
func loadRun(data []byte, table *calib.Table) (Run, bool) {
	in, err := profile.FromChromeJSON(bytes.NewReader(data), table)
	if err != nil {
		return Run{}, false
	}
	p, err := profile.Analyze(in)
	if err != nil {
		return Run{}, false
	}
	s, err := timeres.FromInput(in, timeres.Options{Window: 100 * time.Microsecond})
	if err != nil {
		return Run{}, false
	}
	return Run{Profile: p, TimeRes: s}, true
}

// corpusBytes reads a one-[]byte entry of a committed fuzz corpus.
func corpusBytes(path string) ([]byte, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	_, arg, _ := strings.Cut(string(raw), "\n")
	arg = strings.TrimSpace(arg)
	if !strings.HasPrefix(arg, "[]byte(") || !strings.HasSuffix(arg, ")") {
		return nil, false
	}
	s, err := strconv.Unquote(arg[len("[]byte(") : len(arg)-1])
	return []byte(s), err == nil
}

// cleanTrace exports the trace of a small instrumented exchange.
func cleanTrace(f *testing.F) []byte {
	tr := trace.New(trace.Options{})
	_, err := cluster.RunE(cluster.Config{
		Procs: 2,
		MPI:   mpi.Config{Instrument: &mpi.InstrumentConfig{}},
		Trace: tr,
	}, func(r *mpi.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < 4; i++ {
			q := r.Irecv(peer, 0)
			s := r.Isend(peer, 0, 256<<10)
			r.Compute(200 * time.Microsecond)
			r.Waitall(q, s)
		}
	})
	if err != nil {
		f.Fatal(err)
	}
	var doc bytes.Buffer
	_ = tr.WriteChrome(&doc) // a bytes.Buffer never fails
	return doc.Bytes()
}
