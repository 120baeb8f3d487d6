package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/trace"
)

// tracedExchange exports one small exchange run to a Chrome trace file,
// optionally under fault injection so the two sides of a diff differ
// by a known cause.
func tracedExchange(t *testing.T, faults *fabric.FaultPlan) string {
	t.Helper()
	tr := trace.New(trace.Options{})
	cfg := cluster.Config{
		Procs:  2,
		MPI:    mpi.Config{Instrument: &mpi.InstrumentConfig{}},
		Trace:  tr,
		Faults: faults,
	}
	cluster.Run(cfg, func(r *mpi.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < 4; i++ {
			var q *mpi.Request
			if r.ID() == 0 {
				q = r.Isend(peer, i, 64<<10)
			} else {
				q = r.Irecv(peer, i)
			}
			r.Compute(100 * time.Microsecond)
			r.Wait(q)
		}
	})
	return writeTrace(t, tr)
}

func TestSelfDiffIsZero(t *testing.T) {
	path := tracedExchange(t, nil)
	var out, errb bytes.Buffer
	if code := ovldiffMain([]string{"-json", path, path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var doc struct {
		WallDelta int64             `json:"wall_delta_ns"`
		GapDelta  int64             `json:"gap_delta_ns"`
		Causes    []json.RawMessage `json:"causes"`
		Sites     []json.RawMessage `json:"sites"`
		Windows   []json.RawMessage `json:"windows"`
		Findings  []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if doc.WallDelta != 0 || doc.GapDelta != 0 {
		t.Errorf("self-diff deltas: wall %d gap %d", doc.WallDelta, doc.GapDelta)
	}
	if len(doc.Causes)+len(doc.Sites)+len(doc.Windows)+len(doc.Findings) != 0 {
		t.Errorf("self-diff not empty: causes=%d sites=%d windows=%d findings=%d",
			len(doc.Causes), len(doc.Sites), len(doc.Windows), len(doc.Findings))
	}
}

func TestFaultedDiffConserves(t *testing.T) {
	clean := tracedExchange(t, nil)
	faulted := tracedExchange(t, &fabric.FaultPlan{Seed: 7, Default: fabric.LinkFaults{DropRate: 0.3}})
	var out, errb bytes.Buffer
	if code := ovldiffMain([]string{"-csv", clean, faulted}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	// Parse the CSV: cause deltas and site deltas must each sum to the
	// total gap delta — conservation end to end through real traces.
	var gapDelta, causeSum, siteSum int64
	sawRetrans := false
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Split(line, ",")
		d, err := strconv.ParseInt(f[len(f)-1], 10, 64)
		if err != nil {
			continue // window rows carry float deltas
		}
		switch {
		case f[0] == "total" && f[1] == "gap_ns":
			gapDelta = d
		case f[0] == "cause":
			causeSum += d
			if f[1] == "fault-retransmit" && d > 0 {
				sawRetrans = true
			}
		case f[0] == "site":
			siteSum += d
		}
	}
	if gapDelta == 0 {
		t.Fatalf("fault injection moved nothing:\n%s", out.String())
	}
	if causeSum != gapDelta {
		t.Errorf("cause deltas sum %d != gap delta %d", causeSum, gapDelta)
	}
	if siteSum != gapDelta {
		t.Errorf("site deltas sum %d != gap delta %d", siteSum, gapDelta)
	}
	if !sawRetrans {
		t.Errorf("drop-faulted diff shows no positive fault-retransmit delta:\n%s", out.String())
	}
}

func TestTextOutputAndDeterminism(t *testing.T) {
	clean := tracedExchange(t, nil)
	faulted := tracedExchange(t, &fabric.FaultPlan{Seed: 7, Default: fabric.LinkFaults{DropRate: 0.3}})
	render := func() string {
		var out, errb bytes.Buffer
		if code := ovldiffMain([]string{clean, faulted}, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		return out.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("text diff not deterministic across reruns")
	}
	for _, want := range []string{"diff:", "wall:", "gap:"} {
		if !strings.Contains(a, want) {
			t.Errorf("text output missing %q:\n%s", want, a)
		}
	}
}

func TestOvldiffUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := ovldiffMain([]string{"only-one.json"}, &out, &errb); code != 2 {
		t.Errorf("one arg exited %d, want 2", code)
	}
	if code := ovldiffMain([]string{"-csv", "-json", "a.json", "b.json"}, &out, &errb); code != 2 {
		t.Errorf("-csv -json exited %d, want 2", code)
	}
	if code := ovldiffMain([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
	if code := ovldiffMain([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &errb); code != 1 {
		t.Errorf("missing file exited %d, want 1", code)
	}
}
