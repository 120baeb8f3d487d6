package trace_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"runtime"
	"testing"

	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/trace"
)

// chunkMax is the most the exporter hands a writer in one call: its
// chunk, for records no longer than the room it keeps free.
const chunkMax = 16 << 10

// luTracer traces NAS LU class A on 8 ranks for three iterations, the
// ~6 MB trace the host-cost benchmark's trace_analysis workload reads.
func luTracer(opts trace.Options) *trace.Tracer {
	tr := trace.New(opts)
	nas.CharacterizeAllReports(nas.LU, nas.ClassA, 8,
		nas.Options{Protocol: mpi.DirectRDMARead, MaxIters: 3, Trace: tr})
	return tr
}

// chromeOf is tr's WriteChrome document (a bytes.Buffer never fails).
func chromeOf(tr *trace.Tracer) []byte {
	var b bytes.Buffer
	_ = tr.WriteChrome(&b)
	return b.Bytes()
}

// pieceWriter keeps what it is given and the size of every piece.
type pieceWriter struct {
	bytes.Buffer
	pieces []int
}

func (w *pieceWriter) Write(p []byte) (int, error) {
	w.pieces = append(w.pieces, len(p))
	return w.Buffer.Write(p)
}

// streamMatches exports tr through a pieceWriter and fails unless the
// pieces join to the document written into one buffer and none exceeds
// the chunk.
// It returns the number of pieces.
func streamMatches(t *testing.T, tr *trace.Tracer) int {
	t.Helper()
	want := chromeOf(tr)
	var w pieceWriter
	if err := tr.WriteChrome(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("stream of %d bytes differs from the %d-byte document", w.Len(), len(want))
	}
	for i, n := range w.pieces {
		if n > chunkMax || n == 0 {
			t.Errorf("piece %d of %d is %d bytes", i, len(w.pieces), n)
		}
	}
	return len(w.pieces)
}

// TestWriteChromeStreamsTheDocument: the stream's pieces, whatever
// their sizes, are the one-buffer document byte for byte, for a trace
// whose tracks spilled, a metrics-only tracer, a released tracer and a
// nil one.
func TestWriteChromeStreamsTheDocument(t *testing.T) {
	lu := luTracer(trace.Options{})
	spills := 0
	for _, tk := range lu.Tracks() {
		spills += tk.Spills()
	}
	if spills == 0 {
		t.Fatal("LU's tracks never spilled — weak fixture")
	}
	if n := streamMatches(t, lu); n < 100 {
		t.Errorf("the LU trace went out in %d pieces, want one per chunk", n)
	}
	lu.Release()
	streamMatches(t, lu)
	streamMatches(t, luTracer(trace.Options{MetricsOnly: true}))
	streamMatches(t, nil)
}

// failWriter takes the first k bytes it is offered, then fails; it
// counts the calls made after the failure.
type failWriter struct {
	got    []byte
	k      int
	failed bool
	after  int
}

var errFull = errors.New("writer full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.after++
		return 0, errFull
	}
	n := min(len(p), w.k-len(w.got))
	w.got = append(w.got, p[:n]...)
	if n < len(p) {
		w.failed = true
		return n, errFull
	}
	return n, nil
}

// TestWriteChromeStopsAtFirstError: a writer that fails at byte k
// makes WriteChrome return its error after writing the document's
// first k bytes and nothing more.
func TestWriteChromeStopsAtFirstError(t *testing.T) {
	tr := luTracer(trace.Options{})
	doc := chromeOf(tr)
	for _, k := range []int{0, 1, chunkMax - 1, chunkMax, 100_000, len(doc) - 1} {
		w := &failWriter{k: k}
		if err := tr.WriteChrome(w); !errors.Is(err, errFull) {
			t.Errorf("fail at byte %d: WriteChrome returned %v", k, err)
		}
		if !bytes.Equal(w.got, doc[:k]) {
			t.Errorf("fail at byte %d: the writer got %d bytes that are not the document's first %d", k, len(w.got), k)
		}
		if w.after != 0 {
			t.Errorf("fail at byte %d: %d writes after the failure", k, w.after)
		}
	}
}

// TestWriteChromeHashAllocs: hashing the export holds no more of the
// document than the chunk — exporting the ~6 MB LU trace into sha256
// allocates at most 64 KiB. Allocation here is a count, not a timing.
func TestWriteChromeHashAllocs(t *testing.T) {
	tr := luTracer(trace.Options{})
	size := len(chromeOf(tr)) // flattens the tracks once, as any first export does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := sha256.New()
	if err := tr.WriteChrome(h); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("exporting %d bytes into sha256 allocated %d bytes", size, got)
	if got > 64<<10 {
		t.Errorf("exporting %d bytes into sha256 allocated %d bytes, want at most 64 KiB", size, got)
	}
}
