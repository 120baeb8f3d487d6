package cluster_test

import (
	"bytes"
	"slices"
	"testing"

	"ovlp/internal/armci"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
)

// The fabric builds its ground-truth log for Config.RecordTruth and
// keeps phase tags for that log or a tracer's wire spans; a run with
// neither reader gets no Transfers and pays for none. These tests walk
// the RecordTruth × Trace matrix on both libraries: whatever a run does
// return must be what every other cell returns (the message witness
// pins the content itself against the code that always built the log).

// truthCell is one cell's observables: the returned log, the tracer's
// wire spans rendered as log entries, and the exported trace.
type truthCell struct {
	transfers []fabric.Transfer
	spans     []fabric.Transfer
	trace     []byte
}

// wireSpans renders a tracer's NIC wire spans as ground-truth entries.
func wireSpans(tr *trace.Tracer) []fabric.Transfer {
	var out []fabric.Transfer
	for _, tk := range tr.Tracks() {
		if tk.Group() != trace.GroupNIC {
			continue
		}
		for _, r := range tk.Recs() {
			if r.Cat == "wire" {
				out = append(out, fabric.Transfer{XferID: r.Args.ID, Src: fabric.NodeID(tk.ID()), Dst: fabric.NodeID(r.Args.Peer),
					Size: int(r.Args.Size), Start: r.Start, End: r.End(), Phase: r.Args.Phase})
			}
		}
	}
	return out
}

func byID(xs []fabric.Transfer) map[uint64]fabric.Transfer {
	m := make(map[uint64]fabric.Transfer, len(xs))
	for _, x := range xs {
		m[x.XferID] = x
	}
	return m
}

// checkTruthMatrix runs all four cells through run and holds them to
// one another.
func checkTruthMatrix(t *testing.T, run func(recordTruth bool, tr *trace.Tracer) []fabric.Transfer) {
	t.Helper()
	var cells [2][2]truthCell // [RecordTruth][traced], 0 = off
	for truth := range cells {
		for traced := range cells[truth] {
			c := &cells[truth][traced]
			if traced == 0 {
				c.transfers = run(truth == 1, nil)
				continue
			}
			tr := trace.New(trace.Options{})
			c.transfers = run(truth == 1, tr)
			c.spans = wireSpans(tr)
			var b bytes.Buffer
			if err := tr.WriteChrome(&b); err != nil {
				t.Fatal(err)
			}
			c.trace = b.Bytes()
		}
	}
	want := cells[1][0].transfers
	if len(want) == 0 {
		t.Fatal("RecordTruth run returned no transfers")
	}
	for _, x := range want {
		if x.Phase == "" {
			t.Fatalf("transfer %d carries no phase tag: %+v", x.XferID, x)
		}
	}
	for _, traced := range []int{0, 1} {
		if got := cells[0][traced].transfers; got != nil {
			t.Errorf("RecordTruth=false traced=%d: Transfers has %d entries, want nil", traced, len(got))
		}
	}
	if got := cells[1][1].transfers; !slices.Equal(got, want) {
		t.Errorf("RecordTruth=true: the log differs with a tracer attached:\n got %v\nwant %v", got, want)
	}
	// Spans are per NIC track, the log is in completion order: match by id.
	ref := byID(want)
	for _, truth := range []int{0, 1} {
		got := byID(cells[truth][1].spans)
		if len(got) != len(ref) || len(cells[truth][1].spans) != len(want) {
			t.Errorf("RecordTruth=%d: %d wire spans (%d ids) for %d transfers", truth, len(cells[truth][1].spans), len(got), len(want))
		}
		for id, x := range ref {
			if got[id] != x {
				t.Errorf("RecordTruth=%d: wire span %+v, transfer %+v", truth, got[id], x)
			}
		}
	}
	if !bytes.Equal(cells[0][1].trace, cells[1][1].trace) {
		t.Error("the exported trace depends on RecordTruth")
	}
}

func TestTruthFollowsItsReadersMPI(t *testing.T) {
	for _, proto := range []mpi.LongProtocol{mpi.PipelinedRDMA, mpi.DirectRDMARead} {
		checkTruthMatrix(t, func(recordTruth bool, tr *trace.Tracer) []fabric.Transfer {
			return cluster.Run(cluster.Config{
				Procs:       4,
				MPI:         mpi.Config{Protocol: proto, Instrument: &mpi.InstrumentConfig{}},
				RecordTruth: recordTruth,
				Trace:       tr,
			}, randomWorkload(4, 3)).Transfers
		})
	}
}

func TestTruthFollowsItsReadersARMCI(t *testing.T) {
	checkTruthMatrix(t, func(recordTruth bool, tr *trace.Tracer) []fabric.Transfer {
		res, err := cluster.RunARMCI(cluster.ARMCIConfig{
			Procs:       3,
			ARMCI:       armci.Config{Instrument: &overlap.Instrument{}},
			RecordTruth: recordTruth,
			Trace:       tr,
		}, randomARMCIWorkload(3, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res.Transfers
	})
}
