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
