package armci_test

import (
	"strings"
	"testing"
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/cluster"
)

func TestPutStridedMovesAllSegments(t *testing.T) {
	const count, block = 32, 4096
	res := runA(t, 2, func(p *armci.Proc) {
		if p.ID() == 0 {
			p.PutStrided(1, count, block)
		}
		p.Barrier()
	})
	found := false
	for _, tr := range res.Transfers {
		if tr.Size == count*block {
			found = true
		}
	}
	if !found {
		t.Fatalf("strided put of %d bytes missing from ground truth", count*block)
	}
	tot := res.Reports[0].Total()
	if tot.Count != 1 {
		t.Fatalf("strided put should be one instrumented transfer, got %d", tot.Count)
	}
}

func TestStridedSlowerThanContiguousSameBytes(t *testing.T) {
	run := func(strided bool) time.Duration {
		res, err := cluster.RunARMCI(cluster.ARMCIConfig{Procs: 2}, func(p *armci.Proc) {
			if p.ID() == 0 {
				for i := 0; i < 10; i++ {
					if strided {
						p.PutStrided(1, 256, 1024) // 256 KiB in 1 KiB segments
					} else {
						p.Put(1, 256<<10)
					}
				}
			}
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration
	}
	contig, strided := run(false), run(true)
	if strided <= contig {
		t.Errorf("strided (%v) should pay per-segment overhead over contiguous (%v)", strided, contig)
	}
}

func TestNbPutStridedOverlaps(t *testing.T) {
	res := runA(t, 2, func(p *armci.Proc) {
		if p.ID() == 0 {
			for i := 0; i < 5; i++ {
				h := p.NbPutStrided(1, 64, 4096)
				p.Compute(2 * time.Millisecond)
				p.WaitHandle(h)
			}
		}
		p.Barrier()
	})
	if tot := res.Reports[0].Total(); tot.MaxPercent() < 90 {
		t.Errorf("non-blocking strided put max overlap %.1f%%, want high", tot.MaxPercent())
	}
}

func TestStridedRejectsZeroSegments(t *testing.T) {
	_, err := cluster.RunARMCI(cluster.ARMCIConfig{Procs: 2}, func(p *armci.Proc) {
		if p.ID() == 0 {
			p.PutStrided(1, 0, 1024)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "at least one segment") {
		t.Fatalf("zero-segment strided put: got %v, want it rejected", err)
	}
}
