package profile

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ovlp/internal/calib"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// syntheticTrace exports a trace of about n records in the exporter's
// vocabulary: four host tracks and two NIC tracks.
func syntheticTrace(n int) []byte {
	tr := trace.New(trace.Options{})
	for i := 0; i < n; i++ {
		at := vtime.Time(1000 * i)
		host := tr.Track(trace.GroupHost, i%4, "rank")
		switch i % 3 {
		case 0:
			host.Span("mpi", "Isend", at, at+700, trace.Args{Peer: (i + 1) % 4, Size: 4096, ID: uint64(i + 1)})
		case 1:
			host.Instant("overlap", "xfer-begin", at, trace.Args{Peer: trace.NoPeer, ID: uint64(i), Detail: "mpi.waitUntil"})
		default:
			tr.Track(trace.GroupNIC, i%2, "nic").Span("wire", "xfer", at, at+500, trace.Args{Peer: 1, Size: 4096, ID: uint64(i - 1), Phase: "eager"})
		}
	}
	return tr.AppendChrome(nil)
}

// TestIngestSteadyStateAllocs: ingest allocates per file, per track and
// per chunk of records, never per record — a trace four times as long
// costs a handful of allocations more (the replaced reader spent seven
// on every record).
func TestIngestSteadyStateAllocs(t *testing.T) {
	const n = 3000
	allocs := func(doc []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := FromChromeJSON(bytes.NewReader(doc), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(syntheticTrace(n)), allocs(syntheticTrace(4*n))
	t.Logf("%d records: %.0f allocs, %d records: %.0f allocs", n, small, 4*n, large)
	if large-small > 64 {
		t.Errorf("%d more records cost %.0f more allocations", 3*n, large-small)
	}
}

// TestIngestBytesBounded: ingesting an N-byte trace allocates at most
// 6·N bytes — the read buffer once, the records once in chunks and once
// flat. (io.ReadAll's growth alone used to come to 6·N.)
func TestIngestBytesBounded(t *testing.T) {
	doc := syntheticTrace(60000)
	r := bytes.NewReader(doc)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in, err := FromChromeJSON(r, nil)
	runtime.ReadMemStats(&after)
	if err != nil || len(in.Ranks) != 4 {
		t.Fatalf("ingest: %d ranks, %v", len(in.Ranks), err)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(6*len(doc))
	t.Logf("%d-byte trace: %d bytes allocated (%.1f·N)", len(doc), got, float64(got)/float64(len(doc)))
	if got > limit {
		t.Errorf("allocated %d bytes for a %d-byte trace, want at most %d", got, len(doc), limit)
	}
}

// TestReadAllSizesBuffer: a reader that can report its size is read
// into one buffer of that size; any other is read all the same.
func TestReadAllSizesBuffer(t *testing.T) {
	doc := bytes.Repeat([]byte("0123456789abcdef"), 1<<12)
	path := filepath.Join(t.TempDir(), "doc")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, r := range map[string]io.Reader{
		"bytes.Reader":   bytes.NewReader(doc),
		"bytes.Buffer":   bytes.NewBuffer(bytes.Clone(doc)),
		"strings.Reader": strings.NewReader(string(doc)),
		"os.File":        file,
	} {
		got, err := readAll(r)
		if err != nil || !bytes.Equal(got, doc) {
			t.Errorf("%s: read %d bytes (%v), want %d", name, len(got), err, len(doc))
		}
		if cap(got) != len(doc)+1 {
			t.Errorf("%s: buffer of %d bytes for %d, want one exact allocation", name, cap(got), len(doc))
		}
	}
	// No size to go by (a pipe), and a size that is wrong (a file being
	// appended to, a reader that under-reports).
	got, err := readAll(io.MultiReader(bytes.NewReader(doc), bytes.NewReader(doc)))
	if err != nil || len(got) != 2*len(doc) {
		t.Errorf("unsized reader: read %d bytes (%v), want %d", len(got), err, 2*len(doc))
	}
	got, err = readAll(shortLen{bytes.NewReader(doc)})
	if err != nil || !bytes.Equal(got, doc) {
		t.Errorf("under-reporting reader: read %d bytes (%v), want %d", len(got), err, len(doc))
	}
	if got, err := readAll(strings.NewReader("")); err != nil || len(got) != 0 {
		t.Errorf("empty reader: %d bytes, %v", len(got), err)
	}
}

// shortLen reports a tenth of what it holds.
type shortLen struct{ *bytes.Reader }

func (s shortLen) Len() int { return s.Reader.Len() / 10 }

// BenchmarkIngestLU reads the ~6 MB trace of NAS LU class A on 8 ranks
// (what bench/'s trace_analysis workload ingests) with the decoder and
// with the encoding/json reader it replaced.
//
//	go test -run '^$' -bench IngestLU -benchmem ./internal/profile
func BenchmarkIngestLU(b *testing.B) {
	tr := trace.New(trace.Options{})
	nas.CharacterizeAllReports(nas.LU, nas.ClassA, 8,
		nas.Options{Protocol: mpi.DirectRDMARead, MaxIters: 3, Trace: tr})
	doc := tr.AppendChrome(nil)
	for _, bc := range []struct {
		name   string
		ingest func(io.Reader, *calib.Table) (Input, error)
	}{{"decoder", FromChromeJSON}, {"reference", referenceFromChromeJSON}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.ingest(bytes.NewReader(doc), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
