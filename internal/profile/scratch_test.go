package profile

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"ovlp/internal/ringpool"
	"ovlp/internal/trace"
)

// tracedInput runs workload w traced and returns the analysis input.
func tracedInput(t *testing.T, w workload) Input {
	t.Helper()
	_, res, tr := runProfiled(t, w.cfg, w.body)
	return FromTracer(tr, res.Calib, res.Reports)
}

func encoded(t *testing.T, in Input) []byte {
	t.Helper()
	p, err := Analyze(in)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var buf bytes.Buffer
	if err := p.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeDoesNotAliasRecords is what lets a tracer's owner Release
// it once Analyze has returned: the profile holds no record slice (its
// strings are copies of immutable headers), so junk written over every
// record afterwards cannot reach it.
func TestAnalyzeDoesNotAliasRecords(t *testing.T) {
	for _, w := range workloads() {
		in := tracedInput(t, w)
		p, err := Analyze(in)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", w.name, err)
		}
		var before, after bytes.Buffer
		if err := p.EncodeJSON(&before); err != nil {
			t.Fatal(err)
		}
		for i := range in.Ranks {
			for j := range in.Ranks[i].Recs {
				in.Ranks[i].Recs[j] = trace.Rec{Cat: "junk", Name: "junk", Start: -1, Dur: 1 << 40,
					Args: trace.Args{Peer: 99, Size: -1, ID: ^uint64(0), Detail: "junk", Phase: "junk"}}
			}
		}
		for i := range in.Wire {
			in.Wire[i] = WireSpan{ID: ^uint64(0), Src: 99, Dst: 99, Start: -1, End: 1 << 40, Phase: "junk"}
		}
		if err := p.EncodeJSON(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Errorf("%s: the profile changed when its input's records were overwritten", w.name)
		}
	}
}

// TestAnalyzeScratchLeaksNothing: the replay's samples, the timelines
// and the path walk live in recycled, uncleared buffers. Analysing A,
// then a run ten times its length (whose scratch doubles several times)
// and a faulted one, then A again must give A's bytes both times — the
// second time from buffers the others wrote through — and mint nothing.
func TestAnalyzeScratchLeaksNothing(t *testing.T) {
	ws := workloads()
	long := workload{cfg: ws[0].cfg, body: exchange("isend-irecv", 10<<10, 400, 20*time.Microsecond)}
	a, b1, b2 := tracedInput(t, ws[0]), tracedInput(t, long), tracedInput(t, ws[3])
	listed := func() int { return sampleScratch.Bytes() + spanScratch.Bytes() + segScratch.Bytes() }

	sampleScratch, spanScratch, segScratch = ringpool.List[XferSample]{}, ringpool.List[tlSpan]{}, ringpool.List[PathSegment]{}
	first := encoded(t, a)
	if sampleScratch.Bytes() == 0 || spanScratch.Bytes() == 0 || segScratch.Bytes() == 0 {
		t.Fatalf("Analyze returned no scratch: samples %d, spans %d, segments %d bytes listed",
			sampleScratch.Bytes(), spanScratch.Bytes(), segScratch.Bytes())
	}
	afterA := listed()
	encoded(t, b1)
	encoded(t, b2)
	held := listed()
	if held <= afterA {
		t.Fatalf("the longer run grew no scratch (%d bytes listed, %d after A) — weak fixture", held, afterA)
	}
	if again := encoded(t, a); !bytes.Equal(first, again) {
		t.Error("analysing A after B gave different bytes than analysing A first")
	}
	if got := listed(); got != held {
		t.Errorf("scratch lists hold %d bytes after a repeated analysis, %d before: buffers minted or not returned", got, held)
	}
}

// TestAnalyzeIsItsTwoHalves: AnalyzeTransfers leaves exactly the
// critical path out.
func TestAnalyzeIsItsTwoHalves(t *testing.T) {
	for _, w := range workloads() {
		in := tracedInput(t, w)
		full, err := Analyze(in)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", w.name, err)
		}
		half, err := AnalyzeTransfers(in)
		if err != nil {
			t.Fatalf("%s: AnalyzeTransfers: %v", w.name, err)
		}
		if !reflect.DeepEqual(half.Critical, CriticalPath{}) {
			t.Errorf("%s: AnalyzeTransfers walked a critical path: %+v", w.name, half.Critical.ByKind)
		}
		if full.Critical.Length != full.Duration || len(full.Critical.Segments) == 0 {
			t.Errorf("%s: Analyze's path covers %v of %v in %d segments", w.name,
				full.Critical.Length, full.Duration, len(full.Critical.Segments))
		}
		half.Critical = criticalPath(&in, half.Duration)
		if !reflect.DeepEqual(full, half) {
			t.Errorf("%s: Analyze differs from AnalyzeTransfers plus criticalPath", w.name)
		}
	}
}
