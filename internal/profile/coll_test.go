package profile

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/mpi"
	"ovlp/internal/progress"
)

// Transfers issued by a nonblocking-collective schedule must be
// attributed to the owning schedule's site label, with progress
// starvation blamed there — not to whichever call (or "(outside)",
// for progress-thread polls) the protocol happened to run under.

func collProfileConfig(mode progress.Mode) cluster.Config {
	return cluster.Config{
		Procs: 4,
		MPI: mpi.Config{
			CollAlgo:   coll.Ring,
			Progress:   progress.Config{Mode: mode},
			Instrument: &mpi.InstrumentConfig{},
		},
	}
}

// collProfileBody under-polls an eager-sized ring Iallreduce, so the
// schedule starves between TestColl calls and the replay has progress
// gaps to attribute.
func collProfileBody(r *mpi.Rank) {
	for i := 0; i < 5; i++ {
		cr := r.Iallreduce(8 << 10)
		for k := 0; k < 4; k++ {
			r.Compute(50 * time.Microsecond)
			r.TestColl(cr)
		}
		r.WaitColl(cr)
	}
}

func TestCollectiveScheduleAttribution(t *testing.T) {
	for _, mode := range []progress.Mode{progress.Manual, progress.Thread} {
		t.Run(mode.String(), func(t *testing.T) {
			p, res, _ := runProfiled(t, collProfileConfig(mode), collProfileBody)
			checkConservation(t, p, res.Reports, res.Duration)
			var sched *Site
			for i := range p.Sites {
				s := &p.Sites[i]
				switch s.Op {
				case "Iallreduce[ring]":
					sched = s
				case "(outside)", "WaitColl", "TestColl", "Iallreduce":
					// Every transfer in this workload belongs to the
					// schedule; none may leak to the raw call sites.
					if s.Count > 0 {
						t.Errorf("%d schedule transfers attributed to site %q", s.Count, s.Op)
					}
				}
			}
			if sched == nil {
				t.Fatal("no site labeled Iallreduce[ring]")
			}
			if sched.Count != p.Totals.Transfers {
				t.Errorf("schedule site owns %d of %d transfers", sched.Count, p.Totals.Transfers)
			}
		})
	}
	// Starvation blame must appear on the under-polled manual run.
	p, _, _ := runProfiled(t, collProfileConfig(progress.Manual), collProfileBody)
	if p.Totals.Blame.Progress == 0 {
		t.Error("under-polled manual run attributed no progress-starvation time")
	}
}

// TestCollectiveProfileGolden locks the rendered profile of the
// starved-collective workload. Regenerate with:
//
//	go test ./internal/profile -run CollectiveProfileGolden -update
func TestCollectiveProfileGolden(t *testing.T) {
	p, _, _ := runProfiled(t, collProfileConfig(progress.Manual), collProfileBody)
	var buf bytes.Buffer
	if err := p.WriteText(&buf, 10); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "Iallreduce[ring]") {
		t.Fatalf("profile text lacks the schedule site:\n%s", got)
	}

	checkGolden(t, "profile_coll.golden", got)
}
