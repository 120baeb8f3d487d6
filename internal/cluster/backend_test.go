package cluster_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/calib"
	"ovlp/internal/clock"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/vtime"
)

// The real backend is the virtual kernel waiting on a clock, so on a
// clock that moves exactly when slept on it measures the same table.
func TestSteppedCalibrationEqualsVirtual(t *testing.T) {
	cost := fabric.DefaultCostModel()
	virt := cluster.Calibrate(cost, calib.StandardSizes(), 3)
	stepped := cluster.CalibrateBackend(cluster.BackendReal, &clock.Stepped{}, cost, calib.StandardSizes(), 3)
	if !reflect.DeepEqual(stepped, virt) {
		t.Fatalf("stepped table %+v\nvirtual table %+v", stepped, virt)
	}
}

// lossyExchange is a faulted, reliable run: every rank trades eager and
// rendezvous messages with both ring neighbours over links that drop,
// duplicate and delay.
func lossyExchange(procs int) (cluster.Config, func(r *mpi.Rank)) {
	cfg := cluster.Config{
		Procs: procs,
		MPI: mpi.Config{
			Instrument: &mpi.InstrumentConfig{},
			Reliable:   &fabric.ReliableParams{},
		},
		RecordTruth: true,
		Faults: &fabric.FaultPlan{Seed: 19, Default: fabric.LinkFaults{
			DropRate: 0.1, DupRate: 0.05, JitterMax: 2 * time.Microsecond,
		}},
		Deadline: 30 * time.Second,
	}
	return cfg, func(r *mpi.Rank) {
		n := r.Size()
		next, prev := (r.ID()+1)%n, (r.ID()+n-1)%n
		for i, size := range []int{512, 8 << 10, 96 << 10, 2 << 10, 200 << 10, 64} {
			sq := r.Isend(next, i, size)
			rq := r.Irecv(prev, i)
			r.Compute(40 * time.Microsecond)
			r.Waitall(sq, rq)
			r.Allreduce(64)
		}
	}
}

// Stepped against virtual on one faulted, reliable run, field by field:
// where the message witness says "some digest moved", this says what.
func TestSteppedFaultedRunEqualsVirtual(t *testing.T) {
	cfg, prog := lossyExchange(4)
	virt, err := cluster.RunE(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg, prog = lossyExchange(4)
	cfg.Backend, cfg.Clock = cluster.BackendReal, &clock.Stepped{}
	stepped, err := cluster.RunE(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if virt.FaultStats.Dropped == 0 || virt.FaultStats.Duplicated == 0 {
		t.Fatalf("the plan injected nothing to compare: %+v", virt.FaultStats)
	}
	if stepped.Duration != virt.Duration {
		t.Errorf("Duration: stepped %v, virtual %v", stepped.Duration, virt.Duration)
	}
	if stepped.FaultStats != virt.FaultStats {
		t.Errorf("FaultStats: stepped %+v, virtual %+v", stepped.FaultStats, virt.FaultStats)
	}
	if !reflect.DeepEqual(stepped.RelStats, virt.RelStats) {
		t.Errorf("RelStats: stepped %+v, virtual %+v", stepped.RelStats, virt.RelStats)
	}
	if !reflect.DeepEqual(stepped.Transfers, virt.Transfers) {
		t.Errorf("Transfers differ: stepped %d records, virtual %d", len(stepped.Transfers), len(virt.Transfers))
	}
	if !reflect.DeepEqual(stepped.Reports, virt.Reports) {
		t.Errorf("Reports differ")
	}
}

// What the real backend refused before there was one fabric path, on
// the wall clock: each run must finish, and must have met the trouble
// it was configured with.

func TestRealRunSurvivesDroppedPackets(t *testing.T) {
	cfg, prog := lossyExchange(2)
	cfg.Backend = cluster.BackendReal
	res, err := cluster.RunE(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	retrans := 0
	for _, rs := range res.RelStats {
		retrans += rs.Retransmits + rs.Reposts
	}
	if res.FaultStats.Dropped == 0 || retrans == 0 {
		t.Fatalf("dropped %d, retransmitted %d: the wall-clock run saw no loss to recover from", res.FaultStats.Dropped, retrans)
	}
	if rep := res.Reports[0]; rep == nil || rep.ClockDomain != string(clock.RealDomain) {
		t.Fatalf("report not stamped with the real clock domain: %+v", rep)
	}
	if len(res.Transfers) == 0 {
		t.Fatal("RecordTruth kept no ground truth on the wall clock")
	}
}

func TestRealARMCIRunWithReliableDelivery(t *testing.T) {
	res, err := cluster.RunARMCIE(cluster.ARMCIConfig{
		Procs:    2,
		Backend:  cluster.BackendReal,
		ARMCI:    armci.Config{Reliable: &fabric.ReliableParams{}},
		Faults:   &fabric.FaultPlan{Seed: 19, Default: fabric.LinkFaults{DropRate: 0.2}},
		Deadline: 30 * time.Second,
	}, func(p *armci.Proc) {
		right := (p.ID() + 1) % p.Size()
		for i := 0; i < 12; i++ {
			h := p.NbPut(right, 32<<10)
			p.Compute(30 * time.Microsecond)
			p.WaitHandle(h)
			p.Barrier()
		}
		p.FenceAll()
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, rs := range res.RelStats {
		recovered += rs.Retransmits + rs.Reposts
	}
	if res.FaultStats.Dropped == 0 || recovered == 0 {
		t.Fatalf("dropped %d, recovered %d: the wall-clock run saw no loss to recover from", res.FaultStats.Dropped, recovered)
	}
}

func TestRealRunFTRecoversFromCrash(t *testing.T) {
	cfg := ftConfig(4, crashPlan(2))
	cfg.Backend = cluster.BackendReal
	cfg.Deadline = 30 * time.Second
	wl := &ringWL{steps: 8, bytes: 64 << 10, compute: 100 * time.Microsecond}
	res, err := cluster.RunFT(cfg, cluster.FTOptions{Mode: cluster.ShrinkContinue}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Epochs == 0 {
		t.Fatalf("completed %v after %d recovery epoch(s), want a finished run that recovered", res.Completed, res.Epochs)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 2 || len(res.Survivors) != 3 {
		t.Fatalf("failed %v, survivors %v; want rank 2 dead and three survivors", res.Failed, res.Survivors)
	}
	var crash *fabric.NodeCrashedError
	if !errors.As(res.RankErrors[2], &crash) {
		t.Fatalf("rank 2's error = %v, want the planned crash", res.RankErrors[2])
	}
}

// Two ranks that both receive first wedge at once. Every wake-up is an
// event on the heap, so the wall-clock kernel sees "no pending events"
// just as the virtual one does — at once, with the same dump — instead
// of waiting for a watchdog.
func TestRealDeadlockIsDiagnosedAtOnce(t *testing.T) {
	diagnose := func(b cluster.Backend) *vtime.DeadlockError {
		_, err := cluster.RunE(cluster.Config{Procs: 2, Backend: b}, func(r *mpi.Rank) {
			peer := 1 - r.ID()
			r.Recv(peer, 0)
			r.Send(peer, 0, 1024)
		})
		var de *vtime.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("%v run: err = %v, want a DeadlockError", b, err)
		}
		return de
	}
	start := time.Now()
	real := diagnose(cluster.BackendReal)
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("the wedged real run took %v to say so", wall)
	}
	virt := diagnose(cluster.BackendVirtual)
	if real.Reason != virt.Reason || len(real.Procs) != len(virt.Procs) {
		t.Fatalf("real diagnosis: %v\nvirtual diagnosis: %v", real, virt)
	}
	for i, p := range real.Procs {
		p.Since = virt.Procs[i].Since // the one field a wall clock cannot repeat
		if p != virt.Procs[i] {
			t.Fatalf("proc %d: real dump %+v, virtual dump %+v", i, p, virt.Procs[i])
		}
	}
}
