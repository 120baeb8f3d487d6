package profile

import (
	"testing"
	"time"

	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// TestReplayNeverClosedTransfers is the hostile-trace bound on
// truncation: a file of xfer-begin instants with no xfer-end costs one
// sort per epoch cut and at Finish, not a quadratic pass over the open
// map (the hand-rolled insertion sort this replaced took 18 s here).
// Ids arrive descending and must leave ascending.
func TestReplayNeverClosedTransfers(t *testing.T) {
	const perEpoch = 150_000
	var got []XferSample
	rr := NewRankReplay(0, func(x XferSample) { got = append(got, x) })
	started := time.Now()
	for id := uint64(2 * perEpoch); id > 0; id-- {
		at := vtime.Time(2*perEpoch - id)
		rr.Feed(trace.Rec{Cat: "overlap", Name: "xfer-begin", Start: at,
			Args: trace.Args{Peer: trace.NoPeer, ID: id, Size: 64}})
		if id == perEpoch+1 {
			rr.Feed(trace.Rec{Cat: "overlap", Name: "epoch-cut", Start: at, Args: trace.None})
		}
	}
	rr.Finish()
	if err := rr.Err(); err != nil {
		t.Fatal(err)
	}
	if spent := time.Since(started); spent > 10*time.Second {
		t.Errorf("replay took %v: truncation is no longer O(n log n)", spent)
	}
	if len(got) != 2*perEpoch {
		t.Fatalf("%d samples, want %d", len(got), 2*perEpoch)
	}
	for i, x := range got {
		// The cut's transfers first (ids perEpoch+1.., epoch 0, Cut),
		// then the stream end's (ids 1.., epoch 1), each group ascending.
		want := XferSample{ID: uint64(perEpoch + 1 + i), Case: CaseTruncated, Cut: true, BeginAt: x.BeginAt, At: x.At}
		if i >= perEpoch {
			want = XferSample{ID: uint64(i - perEpoch + 1), Case: CaseTruncated, Epoch: 1, BeginAt: x.BeginAt, At: x.At}
		}
		if want.Size = 64; x != want {
			t.Fatalf("sample %d: %+v, want %+v", i, x, want)
		}
	}
}

// TestFeedSteadyStateAllocs: the pending queue keeps its array from
// call to call. Re-slicing it from the front after each flush made the
// next instant's append reallocate — one allocation per call bracket,
// 34,000 a pass on the benchmark's LU trace.
func TestFeedSteadyStateAllocs(t *testing.T) {
	rr := NewRankReplay(0, func(XferSample) {})
	at, id := vtime.Time(0), uint64(0)
	instant := func(name string, id uint64) {
		at++
		rr.Feed(trace.Rec{Cat: "overlap", Name: name, Start: at, Args: trace.Args{Peer: trace.NoPeer, ID: id, Size: 4096}})
	}
	// One library call: two transfers begun in it, the previous call's
	// two completed in it, and — stamped before it started, so flushed
	// as a user-code event with the rest left pending — a region push.
	call := func() {
		instant("region-pop", 1)
		instant("region-push", 1)
		start := at + 1
		if id > 0 {
			instant("xfer-end", id-1)
			instant("xfer-end", id)
		}
		id += 2
		instant("xfer-begin", id-1)
		instant("xfer-begin", id)
		at++
		rr.Feed(trace.Rec{Cat: "mpi", Name: "Waitall", Start: start, Dur: time.Duration(at - start), Args: trace.None})
	}
	for i := 0; i < 64; i++ { // warm-up: the queue, the fold's tables, the op index
		call()
	}
	if n := testing.AllocsPerRun(200, call); n != 0 {
		t.Errorf("%.1f allocations per call bracket in steady state, want 0", n)
	}
	rr.Finish()
	if err := rr.Err(); err != nil {
		t.Fatal(err)
	}
	if want := 8*(64+201) - 2; rr.Events() != want { // the first call completes nothing
		t.Errorf("%d events replayed, want %d", rr.Events(), want)
	}
}
