package armci_test

import (
	"testing"
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/cluster"
	"ovlp/internal/overlap"
)

func runA(t *testing.T, n int, main func(p *armci.Proc)) cluster.ARMCIResult {
	t.Helper()
	res, err := cluster.RunARMCI(cluster.ARMCIConfig{
		Procs:       n,
		ARMCI:       armci.Config{Instrument: &overlap.Instrument{}},
		RecordTruth: true,
	}, main)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBlockingPutZeroOverlap(t *testing.T) {
	res := runA(t, 2, func(p *armci.Proc) {
		if p.ID() == 0 {
			for i := 0; i < 10; i++ {
				p.Put(1, 256<<10)
				p.Compute(time.Millisecond)
			}
		}
		p.Barrier()
	})
	tot := res.Reports[0].Total()
	if tot.Count < 10 {
		t.Fatalf("expected >=10 transfers, got %d", tot.Count)
	}
	if tot.MaxOverlapped != 0 {
		t.Errorf("blocking puts reported max overlap %v, want 0 (same-call case)", tot.MaxOverlapped)
	}
}

func TestNonblockingPutHighOverlap(t *testing.T) {
	res := runA(t, 2, func(p *armci.Proc) {
		if p.ID() == 0 {
			for i := 0; i < 10; i++ {
				h := p.NbPut(1, 256<<10)
				p.Compute(time.Millisecond) // plenty to hide ~290us transfer
				p.WaitHandle(h)
			}
		}
		p.Barrier()
	})
	tot := res.Reports[0].Total()
	if tot.MaxPercent() < 95 {
		t.Errorf("non-blocking put max overlap %.1f%%, want ~100", tot.MaxPercent())
	}
	if tot.MinPercent() < 80 {
		t.Errorf("non-blocking put min overlap %.1f%%, want high", tot.MinPercent())
	}
}

func TestGetMovesDataFromRemote(t *testing.T) {
	res := runA(t, 2, func(p *armci.Proc) {
		if p.ID() == 0 {
			p.Get(1, 1<<20)
		}
		p.Barrier()
	})
	found := false
	for _, tr := range res.Transfers {
		if tr.Size == 1<<20 && tr.Src == 1 && tr.Dst == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("get did not source data from the remote node")
	}
}

func TestNbGetOverlap(t *testing.T) {
	res := runA(t, 2, func(p *armci.Proc) {
		if p.ID() == 0 {
			h := p.NbGet(1, 512<<10)
			p.Compute(2 * time.Millisecond)
			p.WaitHandle(h)
		}
		p.Barrier()
	})
	if tot := res.Reports[0].Total(); tot.MaxPercent() < 95 {
		t.Errorf("NbGet max overlap %.1f%%, want ~100", tot.MaxPercent())
	}
}

func TestFenceAllCompletesEverything(t *testing.T) {
	runA(t, 3, func(p *armci.Proc) {
		var hs []*armci.Handle
		for i := 0; i < 5; i++ {
			hs = append(hs, p.NbPut((p.ID()+1)%p.Size(), 64<<10))
		}
		p.FenceAll()
		for i, h := range hs {
			if !h.Done() {
				t.Errorf("proc %d handle %d not done after FenceAll", p.ID(), i)
			}
		}
		p.Barrier()
	})
}

func TestBarrierSynchronizesARMCI(t *testing.T) {
	var after [4]time.Duration
	runA(t, 4, func(p *armci.Proc) {
		if p.ID() == 3 {
			p.Compute(10 * time.Millisecond)
		}
		p.Barrier()
		after[p.ID()] = p.Now()
	})
	for i, ts := range after {
		if ts < 10*time.Millisecond {
			t.Errorf("proc %d left barrier at %v before slow proc arrived", i, ts)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	res := runA(t, 4, func(p *armci.Proc) {
		for i := 0; i < 50; i++ {
			p.Barrier()
		}
	})
	if res.Duration <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestLibTimeTracked(t *testing.T) {
	res := runA(t, 2, func(p *armci.Proc) {
		if p.ID() == 0 {
			p.Put(1, 1<<20) // >1ms of library time
		}
		p.Barrier()
	})
	if res.LibTimes[0] < time.Millisecond {
		t.Errorf("proc 0 lib time %v, want >1ms", res.LibTimes[0])
	}
}

func TestBarrierTokensAreNotDataTransfers(t *testing.T) {
	res := runA(t, 4, func(p *armci.Proc) {
		for i := 0; i < 10; i++ {
			p.Barrier()
		}
	})
	for i, rep := range res.Reports {
		if n := rep.Total().Count; n != 0 {
			t.Errorf("proc %d recorded %d data transfers from barriers alone", i, n)
		}
	}
}
