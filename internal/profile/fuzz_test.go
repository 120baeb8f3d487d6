package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
)

// FuzzFromChromeJSON drives the trace-file ingester with arbitrary
// bytes: garbage must come back as an error, never a panic, and any
// stream it accepts must also survive the analyzer (which may still
// reject it with an error of its own). The main seed is a committed
// trace exported from a real faulted run.
//
// Run long with: go test -fuzz=FuzzFromChromeJSON -fuzzminimizetime 5s ./internal/profile
// (cap minimization: shrinking interesting mutants of the 46 KiB seed
// can otherwise eat the default 60s budget per input and make the
// exec counter look stalled).
func FuzzFromChromeJSON(f *testing.F) {
	if seed, err := os.ReadFile(filepath.Join("testdata", "fuzz-seed-trace.json")); err == nil {
		f.Add(seed)
	} else {
		f.Errorf("committed seed trace missing: %v", err)
	}
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	table := cluster.Calibrate(fabric.CostModel{}, nil, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := FromChromeJSON(bytes.NewReader(data), table)
		if err != nil {
			return
		}
		_, _ = Analyze(in)
	})
}

// fuzzSeeds are the hand-written seeds both ingest fuzz targets start
// from, beside the committed trace.
var fuzzSeeds = []string{
	``,
	`not json`,
	`{}`,
	`{"traceEvents":[]}`,
	`{"traceEvents":[{"ph":"X","pid":1,"tid":0,"ts":0,"dur":5,"name":"compute"}]}`,
	`{"traceEvents":[{"ph":"i","pid":1,"tid":0,"ts":-3,"name":"xfer-post","args":{"detail":"id=1 size=-9"}}]}`,
	`{"traceEvents":[{"ph":"M","name":"process_name","pid":7,"args":{"name":"nic9"}}],"metrics":{"a":1}}`,
	hostileRegionID,
}

// hostileRegionID is a reproducer the fuzzer found: a region-push
// instant whose id is absurdly large. Before harvestRegionNames was
// bounded, ingesting it tried to grow the region-name table to four
// billion entries — a multi-gigabyte allocation that stalled the
// process for minutes.
const hostileRegionID = `{"traceEvents":[` +
	`{"ph":"i","pid":1,"tid":1,"ts":0,"cat":"overlap","name":"region-push","args":{"id":4000000000,"detail":"bogus"}},` +
	`{"ph":"i","pid":1,"tid":1,"ts":1,"cat":"overlap","name":"region-push","args":{"id":0,"detail":"main"}}]}`

// TestHostileRegionIDBounded pins the fix: the hostile id is ignored,
// the sane one still names its region, and ingestion finishes
// immediately instead of allocating billions of slots.
func TestHostileRegionIDBounded(t *testing.T) {
	done := make(chan Input, 1)
	go func() {
		in, err := FromChromeJSON(bytes.NewReader([]byte(hostileRegionID)), nil)
		if err != nil {
			t.Errorf("FromChromeJSON: %v", err)
		}
		done <- in
	}()
	select {
	case in := <-done:
		if len(in.RegionNames) != 1 || in.RegionNames[0] != "main" {
			t.Fatalf("RegionNames = %q, want [\"main\"] (hostile id ignored)", in.RegionNames)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingestion hung on hostile region id")
	}
}
