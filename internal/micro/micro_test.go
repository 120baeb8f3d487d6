package micro_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ovlp/internal/micro"
	"ovlp/internal/mpi"
	"ovlp/internal/scenario"
)

const testReps = 40

// Point is one measured point of a figure's sweep.
type Point struct {
	Compute time.Duration
	// SenderWait and ReceiverWait are the average per-iteration times
	// spent in the final blocking call of each side.
	SenderWait, ReceiverWait time.Duration
	// Overlap bounds, as percentages of data transfer time, for each
	// side's transfers inside the monitored exchange region.
	SenderMin, SenderMax     float64
	ReceiverMin, ReceiverMax float64
}

// loadFigure loads the committed spec of paper figure fig.
func loadFigure(t *testing.T, fig int) *scenario.Spec {
	t.Helper()
	sp, err := scenario.LoadSpec(filepath.Join("..", "..", "specs", fmt.Sprintf("fig%d.yaml", fig)))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// figure runs the committed spec of paper figure fig at reps
// transfers a point and reads each point's table cells.
func figure(t *testing.T, fig, reps int) []Point {
	t.Helper()
	sp := loadFigure(t, fig)
	for _, p := range sp.Points {
		p.Workload.Reps = reps
	}
	ms, err := sp.Run(scenario.SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, len(ms))
	for i := range ms {
		v := func(col string) any { return sp.Value(ms, i, col) }
		pts[i] = Point{
			Compute:    v("compute").(time.Duration),
			SenderWait: v("sender wait").(time.Duration), ReceiverWait: v("recv wait").(time.Duration),
			SenderMin: v("s.min%").(float64), SenderMax: v("s.max%").(float64),
			ReceiverMin: v("r.min%").(float64), ReceiverMax: v("r.max%").(float64),
		}
	}
	return pts
}

// last returns the final sweep point.
func last(pts []Point) Point { return pts[len(pts)-1] }

func TestFig3EagerFullOverlapAbility(t *testing.T) {
	pts := figure(t, 3, testReps)
	first, end := pts[0], last(pts)
	// Sender: overlap grows from ~0 to ~100% as computation grows.
	if first.SenderMax > 5 {
		t.Errorf("sender max overlap at c=0 is %.1f%%, want ~0", first.SenderMax)
	}
	if end.SenderMax < 95 || end.SenderMin < 90 {
		t.Errorf("sender overlap at max compute is min %.1f / max %.1f, want ~100",
			end.SenderMin, end.SenderMax)
	}
	// Receiver: initiation invisible, so min 0 and max 100, flat.
	for _, p := range pts {
		if p.ReceiverMin != 0 || p.ReceiverMax < 95 {
			t.Fatalf("receiver bounds at c=%v are %.1f/%.1f, want 0/100",
				p.Compute, p.ReceiverMin, p.ReceiverMax)
		}
	}
	// Sender wait time drops to its floor once overlap saturates.
	if end.SenderWait >= first.SenderWait/4 {
		t.Errorf("sender wait did not drop: %v -> %v", first.SenderWait, end.SenderWait)
	}
}

// pipelinedFlat asserts the pipelined-protocol signature: only the
// first fragment can be overlapped, so the curves stay flat and small
// regardless of computation.
func pipelinedFlat(t *testing.T, pts []Point, side string, sel func(Point) (float64, float64)) {
	t.Helper()
	for _, p := range pts {
		minOv, maxOv := sel(p)
		if maxOv > 10 {
			t.Fatalf("%s max overlap at c=%v is %.1f%%, want flat and small (first fragment only)",
				side, p.Compute, maxOv)
		}
		if minOv > maxOv+0.01 {
			t.Fatalf("%s min %.1f%% exceeds max %.1f%%", side, minOv, maxOv)
		}
	}
	// And not identically zero at high compute: the first fragment is
	// overlappable.
	if _, maxOv := sel(last(pts)); maxOv <= 0 {
		t.Errorf("%s max overlap stuck at zero; first fragment should overlap", side)
	}
}

func TestFig4PipelinedIsendRecvSenderFlat(t *testing.T) {
	pts := figure(t, 4, testReps)
	pipelinedFlat(t, pts, "sender", func(p Point) (float64, float64) { return p.SenderMin, p.SenderMax })
	// Wait time stays high: the bulk cannot be hidden.
	if w := last(pts).SenderWait; w < 500*time.Microsecond {
		t.Errorf("sender wait %v at max compute; pipelined should stay high", w)
	}
}

func TestFig5DirectIsendRecvSenderOverlaps(t *testing.T) {
	pts := figure(t, 5, testReps)
	first, end := pts[0], last(pts)
	if first.SenderMax > 5 {
		t.Errorf("sender max at c=0 = %.1f%%, want ~0", first.SenderMax)
	}
	if end.SenderMax < 95 || end.SenderMin < 90 {
		t.Errorf("sender bounds at max compute = %.1f/%.1f, want ~100", end.SenderMin, end.SenderMax)
	}
	// "the progressive drop in wait time further confirms this trend"
	if end.SenderWait > first.SenderWait/10 {
		t.Errorf("sender wait should collapse with full overlap: %v -> %v",
			first.SenderWait, end.SenderWait)
	}
	// Monotone non-increasing wait as compute grows.
	for i := 1; i < len(pts); i++ {
		if pts[i].SenderWait > pts[i-1].SenderWait+time.Microsecond {
			t.Errorf("sender wait rose from %v to %v at c=%v",
				pts[i-1].SenderWait, pts[i].SenderWait, pts[i].Compute)
		}
	}
}

func TestFig6PipelinedSendIrecvReceiverFirstFragmentOnly(t *testing.T) {
	pts := figure(t, 6, testReps)
	pipelinedFlat(t, pts, "receiver", func(p Point) (float64, float64) { return p.ReceiverMin, p.ReceiverMax })
}

func TestFig7DirectSendIrecvZeroReceiverOverlap(t *testing.T) {
	pts := figure(t, 7, testReps)
	for _, p := range pts {
		if p.ReceiverMin != 0 || p.ReceiverMax > 1 {
			t.Fatalf("receiver bounds at c=%v are %.1f/%.1f, want 0/0 (polling misses the request)",
				p.Compute, p.ReceiverMin, p.ReceiverMax)
		}
	}
	// Receiver wait stays high and roughly unchanged.
	w0, wn := pts[1].ReceiverWait, last(pts).ReceiverWait
	if wn < w0/2 || wn < 500*time.Microsecond {
		t.Errorf("receiver wait should stay high: %v -> %v", w0, wn)
	}
}

func TestFig8PipelinedIsendIrecvBothFlat(t *testing.T) {
	pts := figure(t, 8, testReps)
	pipelinedFlat(t, pts, "sender", func(p Point) (float64, float64) { return p.SenderMin, p.SenderMax })
	pipelinedFlat(t, pts, "receiver", func(p Point) (float64, float64) { return p.ReceiverMin, p.ReceiverMax })
}

func TestFig9DirectIsendIrecvSenderMaxRises(t *testing.T) {
	pts := figure(t, 9, testReps)
	if first := pts[0]; first.SenderMax > 5 {
		t.Errorf("sender max at c=0 = %.1f%%", first.SenderMax)
	}
	if end := last(pts); end.SenderMax < 95 {
		t.Errorf("sender max at full compute = %.1f%%, want ~100 (complete overlap possible)",
			end.SenderMax)
	}
	for _, p := range pts {
		if p.ReceiverMax > 1 {
			t.Errorf("receiver max at c=%v = %.1f%%, want ~0", p.Compute, p.ReceiverMax)
		}
	}
}

// TestSweepSpacing: the committed specs carry the paper's sweeps, 13
// computation lengths evenly from 0 to 30µs on the eager Fig. 3 and 15
// from 0 to 1.75ms on the rendezvous Figs. 4-9.
func TestSweepSpacing(t *testing.T) {
	for fig := 3; fig <= 9; fig++ {
		n, step := 15, 125*time.Microsecond
		if fig == 3 {
			n, step = 13, 2500*time.Nanosecond
		}
		sp := loadFigure(t, fig)
		if len(sp.Points) != n {
			t.Fatalf("fig %d: %d points, want %d", fig, len(sp.Points), n)
		}
		for i, p := range sp.Points {
			if got := p.Workload.Compute.D(); got != time.Duration(i)*step {
				t.Fatalf("fig %d point %d computes %v, want %v", fig, i, got, time.Duration(i)*step)
			}
		}
	}
}

// TestParseCallPair: the call pairs read back from their names in any
// case, and a spec naming no pair the paper measures is rejected.
func TestParseCallPair(t *testing.T) {
	for _, cp := range []micro.CallPair{micro.IsendRecv, micro.SendIrecv, micro.IsendIrecv} {
		if got, err := micro.ParseCallPair(strings.ToLower(cp.String())); err != nil || got != cp {
			t.Errorf("micro.ParseCallPair(%q) = %v, %v", cp, got, err)
		}
	}
	spec := "name: x\nprocs: 2\nworkload: {kind: micro, pair: isend-wait, size: 1K, reps: 1}\n" +
		"title: t\ntable: [compute]\nsweep:\n  - compute: [0s]\n"
	if _, err := scenario.ParseSpec("x.yaml", []byte(spec)); err == nil || !strings.Contains(err.Error(), `unknown call pair "isend-wait"`) {
		t.Errorf("a spec naming pair isend-wait: err = %v", err)
	}
}

func TestCallPairStrings(t *testing.T) {
	if micro.IsendRecv.String() != "Isend-Recv" || micro.SendIrecv.String() != "Send-Irecv" ||
		micro.IsendIrecv.String() != "Isend-Irecv" {
		t.Fatal("CallPair String labels wrong")
	}
	if mpi.PipelinedRDMA.String() != "pipelined-rdma" {
		t.Fatal("protocol label wrong")
	}
}
