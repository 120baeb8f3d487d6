package nas

import (
	"testing"

	"ovlp/internal/mpi"
)

// The assertions here encode the paper's Sec. 4 findings as trends, so
// a regression that breaks the qualitative reproduction fails loudly.

const probeIters = 3

// characterize runs one benchmark instrumented under proto and returns
// process 0's overlap measures.
func characterize(name string, class Class, procs int, proto mpi.LongProtocol, maxIters int) OverlapResult {
	_, res := CharacterizeAllReports(name, class, procs, Options{Protocol: proto, MaxIters: maxIters})
	return res
}

func TestAllBenchmarksCompleteAllClasses(t *testing.T) {
	for _, name := range Names() {
		procs := 4
		if name == BT || name == SP {
			procs = 4 // square
		}
		for _, class := range []Class{ClassS, ClassW} {
			r := characterize(name, class, procs, mpi.DirectRDMARead, 2)
			if r.Duration <= 0 {
				t.Errorf("%s class %s: no virtual time elapsed", name, class)
			}
			if name != EP && r.Transfers == 0 {
				t.Errorf("%s class %s: no transfers observed", name, class)
			}
		}
	}
}

func TestBenchmarksOnVariousProcCounts(t *testing.T) {
	cases := []struct {
		name  string
		procs []int
	}{
		{BT, []int{1, 4, 9, 16}},
		{SP, []int{1, 4, 9, 16}},
		{CG, []int{2, 4, 8, 16}},
		{LU, []int{2, 4, 6, 8, 12}},
		{FT, []int{2, 3, 4, 8}},
		{MG, []int{2, 4, 8}},
		{IS, []int{2, 4, 8}},
		{EP, []int{2, 5, 8}},
	}
	for _, c := range cases {
		for _, p := range c.procs {
			r := characterize(c.name, ClassS, p, mpi.PipelinedRDMA, 2)
			if r.Duration <= 0 {
				t.Errorf("%s on %d procs: no time elapsed", c.name, p)
			}
		}
	}
}

func TestCGOverlapExceedsBT(t *testing.T) {
	// Paper Sec. 4.1: "the overlap results are higher for CG than for
	// BT" (both under Open MPI's pipelined protocol).
	bt := characterize(BT, ClassA, 16, mpi.PipelinedRDMA, probeIters)
	cg := characterize(CG, ClassA, 16, mpi.PipelinedRDMA, probeIters)
	if cg.MaxPct <= bt.MaxPct {
		t.Errorf("CG max overlap %.1f%% should exceed BT's %.1f%%", cg.MaxPct, bt.MaxPct)
	}
}

func TestBTOverlapDropsWithProblemSize(t *testing.T) {
	// Paper Sec. 4.1: larger problems mean longer messages and less
	// overlap.
	small := characterize(BT, ClassS, 4, mpi.PipelinedRDMA, probeIters)
	large := characterize(BT, ClassA, 4, mpi.PipelinedRDMA, probeIters)
	if large.MaxPct >= small.MaxPct {
		t.Errorf("BT max overlap should drop with problem size: S %.1f%% -> A %.1f%%",
			small.MaxPct, large.MaxPct)
	}
}

func TestLUHighOverlapRisingWithProcs(t *testing.T) {
	// Paper Sec. 4.2 / Fig. 12: LU's short-message traffic gives >70%
	// maximum overlap, increasing with processor count.
	var prev float64
	for i, procs := range []int{4, 8, 16} {
		r := characterize(LU, ClassA, procs, mpi.DirectRDMARead, probeIters)
		if r.MaxPct < 70 {
			t.Errorf("LU A on %d procs: max overlap %.1f%%, paper reports >70%%", procs, r.MaxPct)
		}
		if i > 0 && r.MaxPct < prev-2 {
			t.Errorf("LU max overlap should rise with procs: %.1f%% -> %.1f%%", prev, r.MaxPct)
		}
		prev = r.MaxPct
	}
}

func TestFTLowOverlap(t *testing.T) {
	// Paper Sec. 4.2 / Fig. 13: FT's Alltoall-dominated traffic leaves
	// little scope for overlap.
	for _, procs := range []int{4, 8} {
		r := characterize(FT, ClassA, procs, mpi.DirectRDMARead, probeIters)
		if r.MaxPct > 15 {
			t.Errorf("FT A on %d procs: max overlap %.1f%%, paper reports near zero", procs, r.MaxPct)
		}
	}
}

func TestSPModificationImprovesOverlapAndMPITime(t *testing.T) {
	// Paper Sec. 4.3 / Figs. 14-18: inserting Iprobes into SP's
	// overlap windows raises the overlapping-section bounds
	// substantially and cuts total MPI time.
	for _, procs := range []int{4, 9, 16} {
		orig := CharacterizeSP(ClassA, procs, false, Options{MaxIters: probeIters})
		mod := CharacterizeSP(ClassA, procs, true, Options{MaxIters: probeIters})
		if mod.SectionMaxPct < orig.SectionMaxPct+20 {
			t.Errorf("P=%d: section max overlap %.1f%% -> %.1f%%, want a large improvement",
				procs, orig.SectionMaxPct, mod.SectionMaxPct)
		}
		if mod.SectionMinPct < 40 {
			t.Errorf("P=%d: modified section min overlap %.1f%%, want substantial", procs, mod.SectionMinPct)
		}
		if mod.MPITime >= orig.MPITime {
			t.Errorf("P=%d: MPI time did not drop: %v -> %v", procs, orig.MPITime, mod.MPITime)
		}
		// Whole-code gains are limited by copy_faces (paper: gains
		// "limited by a substantial volume of data being communicated
		// in routine copy_faces with no computation to overlap").
		if mod.TotalMaxPct < orig.TotalMaxPct {
			t.Errorf("P=%d: whole-code max overlap regressed: %.1f%% -> %.1f%%",
				procs, orig.TotalMaxPct, mod.TotalMaxPct)
		}
	}
}

func TestMGARMCIBlockingVsNonblocking(t *testing.T) {
	// Paper Sec. 4.4 / Fig. 19: the non-blocking ARMCI MG shows very
	// high maximum overlap (99% reported for class B), the blocking
	// variant none.
	for _, procs := range []int{2, 4, 8} {
		b := CharacterizeMGARMCI(ClassA, procs, MGBlocking, Options{MaxIters: 2})
		n := CharacterizeMGARMCI(ClassA, procs, MGNonblocking, Options{MaxIters: 2})
		if b.MaxPct > 1 {
			t.Errorf("P=%d: blocking ARMCI MG max overlap %.1f%%, want ~0", procs, b.MaxPct)
		}
		if n.MaxPct < 90 {
			t.Errorf("P=%d: non-blocking ARMCI MG max overlap %.1f%%, want >90", procs, n.MaxPct)
		}
	}
}

func TestDeterministicCharacterization(t *testing.T) {
	a := characterize(LU, ClassS, 4, mpi.DirectRDMARead, 2)
	b := characterize(LU, ClassS, 4, mpi.DirectRDMARead, 2)
	if a != b {
		t.Errorf("characterization not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestGridHelpers(t *testing.T) {
	if q := isqrt(16); q != 4 {
		t.Errorf("isqrt(16) = %d", q)
	}
	px, py := grid2(12)
	if px*py != 12 || px < py {
		t.Errorf("grid2(12) = %d x %d", px, py)
	}
	x, y, z := grid3(8)
	if x*y*z != 8 || x != 2 || y != 2 || z != 2 {
		t.Errorf("grid3(8) = %d x %d x %d", x, y, z)
	}
	x, y, z = grid3(12)
	if x*y*z != 12 {
		t.Errorf("grid3(12) = %d x %d x %d", x, y, z)
	}
	if l := log2(1); l != 0 {
		t.Errorf("log2(1) = %d", l)
	}
	if l := log2(16); l != 4 {
		t.Errorf("log2(16) = %d", l)
	}
	if l := log2(17); l != 4 {
		t.Errorf("log2(17) = %d", l)
	}
}

func TestIsqrtRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-square proc count")
		}
	}()
	isqrt(5)
}

func TestUnknownBenchmarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown benchmark")
		}
	}()
	characterize("XX", ClassS, 4, mpi.PipelinedRDMA, 1)
}

func TestSqGridNeighborsMutual(t *testing.T) {
	for _, p := range []int{4, 9, 16, 25} {
		for id := 0; id < p; id++ {
			g := newSqGrid(id, p)
			// succ(pred) and pred(succ) must invert.
			if s := newSqGrid(g.xSucc(), p); s.xPred() != id {
				t.Fatalf("p=%d id=%d: xSucc/xPred not inverse", p, id)
			}
			if s := newSqGrid(g.ySucc(), p); s.yPred() != id {
				t.Fatalf("p=%d id=%d: ySucc/yPred not inverse", p, id)
			}
			if s := newSqGrid(g.zSucc(), p); s.zPred() != id {
				t.Fatalf("p=%d id=%d: zSucc/zPred not inverse", p, id)
			}
		}
	}
}

func TestMGGeomNeighborsMutual(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		for id := 0; id < p; id++ {
			g := newMGGeom(id, p)
			for axis := 0; axis < 3; axis++ {
				lo, hi := g.neighbors(axis)
				glo := newMGGeom(lo, p)
				_, backHi := glo.neighbors(axis)
				if backHi != id {
					t.Fatalf("p=%d id=%d axis=%d: lo neighbour's hi is %d", p, id, axis, backHi)
				}
				ghi := newMGGeom(hi, p)
				backLo, _ := ghi.neighbors(axis)
				if backLo != id {
					t.Fatalf("p=%d id=%d axis=%d: hi neighbour's lo is %d", p, id, axis, backLo)
				}
			}
		}
	}
}
