package cluster_test

import (
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/mpi"
	"ovlp/internal/progress"
)

// TestIallreduce1024Ranks is the ROADMAP stress proof: three overlapped
// recursive-doubling Iallreduce(64 KiB) on 1024 instrumented ranks —
// 2048 procs with progress threads — must finish in CI time and land
// on the virtual durations the channel-handoff kernel produced.
func TestIallreduce1024Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank run")
	}
	for _, tc := range []struct {
		mode progress.Mode
		want time.Duration
	}{
		{progress.Manual, 5670111 * time.Nanosecond},
		{progress.Thread, 5180766 * time.Nanosecond},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			start := time.Now()
			res, err := cluster.RunE(cluster.Config{Procs: 1024, MPI: mpi.Config{
				CollAlgo:   coll.RecDouble,
				Progress:   progress.Config{Mode: tc.mode},
				Instrument: &mpi.InstrumentConfig{},
			}}, func(r *mpi.Rank) {
				for i := 0; i < 3; i++ {
					cr := r.Iallreduce(64 << 10)
					r.Compute(200 * time.Microsecond)
					r.WaitColl(cr)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Duration != tc.want {
				t.Errorf("virtual duration %v, want %v", res.Duration, tc.want)
			}
			for i, rep := range res.Reports {
				if rep == nil {
					t.Fatalf("rank %d has no overlap report", i)
				}
			}
			t.Logf("%d ranks, %s: %v virtual in %v host", len(res.Reports), tc.mode, res.Duration, time.Since(start).Round(time.Millisecond))
		})
	}
}
