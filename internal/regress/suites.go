package regress

import (
	"fmt"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/overlap"
	"ovlp/internal/profile"
	"ovlp/internal/progress"
	"ovlp/internal/timeres"
	"ovlp/internal/trace"
)

// The suites pin the code paths the paper's evaluation exercises: the
// eager, pipelined-rendezvous and direct-read protocols on the
// two-process exchange (the microbenchmark shape of Figs. 3-9), and
// one real NAS kernel. Workload parameters are fixed forever — the
// baseline files encode their results, so changing a parameter is the
// same as deleting the baseline's history.

// Artifact is one workload's retained analysis output: the blame
// profile and windowed efficiency snapshot behind an Entry's numbers.
// Runners obtained through SuitesTraced keep one Artifact per entry,
// so ovlp benchgate -explain can hand a regression it just flagged to
// the diagnosis engine without re-measuring. TimeRes is nil when the
// stream could not be replayed (the profile alone still explains the
// blame split).
type Artifact struct {
	Entry   string
	Profile *profile.Profile
	TimeRes *timeres.Snapshot
}

// RunOverlapSuite measures the three protocol paths on the
// two-process exchange workload.
func RunOverlapSuite() *Baseline { b, _ := overlapSuite(nil); return b }

func overlapSuite(arts *[]Artifact) (*Baseline, []Artifact) {
	b := &Baseline{Schema: Schema, Suite: "overlap"}
	type cfg struct {
		name  string
		proto mpi.LongProtocol
		size  int
	}
	for _, c := range []cfg{
		{"eager-10KiB", mpi.PipelinedRDMA, 10 << 10},
		{"pipelined-1MiB", mpi.PipelinedRDMA, 1 << 20},
		{"direct-1MiB", mpi.DirectRDMARead, 1 << 20},
	} {
		b.Entries = append(b.Entries, measure(c.name, cluster.Config{
			Procs: 2,
			MPI: mpi.Config{
				Protocol:   c.proto,
				Instrument: &mpi.InstrumentConfig{},
			},
		}, exchangeBody(c.size, 50, 200*time.Microsecond), arts))
	}
	return b, deref(arts)
}

// RunNASSuite measures one real kernel: LU class S on four ranks,
// three iterations, under the direct-read library.
func RunNASSuite() *Baseline { b, _ := nasSuite(nil); return b }

func nasSuite(arts *[]Artifact) (*Baseline, []Artifact) {
	b := &Baseline{Schema: Schema, Suite: "nas"}
	b.Entries = append(b.Entries, measure("lu-S-p4", cluster.Config{
		Procs: 4,
		MPI: mpi.Config{
			Protocol:   mpi.DirectRDMARead,
			Instrument: &mpi.InstrumentConfig{},
		},
	}, func(r *mpi.Rank) {
		nas.Run(nas.LU, r, nas.Params{Class: nas.ClassS, MaxIters: 3})
	}, arts))
	return b, deref(arts)
}

// RunCollSuite measures the nonblocking-collective subsystem: a
// compute-overlapped ring and recursive-doubling Iallreduce on four
// ranks under each progress mode. The thread rows pin the subsystem's
// reason to exist — the overlap a progress thread recovers from
// unpolled schedules — so a regression there is a regression in the
// PR's headline result.
func RunCollSuite() *Baseline { b, _ := collSuite(nil); return b }

func collSuite(arts *[]Artifact) (*Baseline, []Artifact) {
	b := &Baseline{Schema: Schema, Suite: "coll"}
	for _, algo := range []coll.Algo{coll.Ring, coll.RecDouble} {
		for _, mode := range []progress.Mode{progress.Manual, progress.Piggyback, progress.Thread} {
			name := fmt.Sprintf("iallreduce-64KiB-%s-%s", algo, mode)
			b.Entries = append(b.Entries, measure(name, cluster.Config{
				Procs: 4,
				MPI: mpi.Config{
					CollAlgo:   algo,
					Progress:   progress.Config{Mode: mode},
					Instrument: &mpi.InstrumentConfig{},
				},
			}, iallreduceBody(64<<10, 30, 200*time.Microsecond), arts))
		}
	}
	return b, deref(arts)
}

func deref(arts *[]Artifact) []Artifact {
	if arts == nil {
		return nil
	}
	return *arts
}

// Suites maps the suite names ovlp benchgate accepts to their runners.
func Suites() map[string]func() *Baseline {
	return map[string]func() *Baseline{
		"overlap": RunOverlapSuite,
		"nas":     RunNASSuite,
		"coll":    RunCollSuite,
	}
}

// SuitesTraced maps suite names to runners that also retain each
// entry's analysis artifacts for post-hoc diagnosis. The measurement
// itself is identical to Suites — the capture is a pure observer.
func SuitesTraced() map[string]func() (*Baseline, []Artifact) {
	wrap := func(run func(*[]Artifact) (*Baseline, []Artifact)) func() (*Baseline, []Artifact) {
		return func() (*Baseline, []Artifact) {
			var arts []Artifact
			return run(&arts)
		}
	}
	return map[string]func() (*Baseline, []Artifact){
		"overlap": wrap(overlapSuite),
		"nas":     wrap(nasSuite),
		"coll":    wrap(collSuite),
	}
}

func iallreduceBody(size, reps int, compute time.Duration) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		for i := 0; i < reps; i++ {
			r.PushRegion("allreduce")
			cr := r.Iallreduce(size)
			r.Compute(compute)
			r.WaitColl(cr)
			r.PopRegion()
		}
	}
}

func exchangeBody(size, reps int, compute time.Duration) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < reps; i++ {
			r.PushRegion("exchange")
			var q *mpi.Request
			if r.ID() == 0 {
				q = r.Isend(peer, 0, size)
			} else {
				q = r.Irecv(peer, 0)
			}
			r.Compute(compute)
			r.Wait(q)
			r.PopRegion()
		}
	}
}

func measure(name string, cfg cluster.Config, body func(r *mpi.Rank), arts *[]Artifact) Entry {
	tr := trace.New(trace.Options{})
	cfg.Trace = tr
	res := cluster.Run(cfg, body)
	in := profile.FromTracer(tr, res.Calib, res.Reports)
	p, err := profile.Analyze(in)
	if err != nil {
		panic(fmt.Sprintf("regress: profiling %s: %v", name, err))
	}
	if arts != nil {
		a := Artifact{Entry: name, Profile: p}
		if snap, err := timeres.FromInput(in, timeres.Options{}); err == nil {
			a.TimeRes = snap
		}
		*arts = append(*arts, a)
	}
	var tot overlap.Measures
	for _, rep := range res.Reports {
		if rep != nil {
			tot.Add(rep.Total())
		}
	}
	return Entry{
		Name:          name,
		WallNS:        res.Duration.Nanoseconds(),
		MinOverlapPct: tot.MinPercent(),
		MaxOverlapPct: tot.MaxPercent(),
		CritPathNS:    p.Critical.Length.Nanoseconds(),
		Transfers:     tot.Count,
	}
}
