package report_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/report"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTimelineGolden locks the ASCII timeline renderer's output on a
// fixed-seed run of the ring scenario (the ovlp timeline default): the
// simulation is deterministic, so the rendered chart is a stable
// artifact. Regenerate with: go test ./internal/report -run Golden -update
func TestTimelineGolden(t *testing.T) {
	const procs = 3
	traces := make([]overlap.EventLog, procs)
	cfg := cluster.Config{
		Procs: procs,
		MPI: mpi.Config{
			Protocol: mpi.DirectRDMARead,
			Instrument: &mpi.InstrumentConfig{
				SinkFor: func(rank int) overlap.Sink { return &traces[rank] },
			},
		},
		RecordTruth: true,
	}
	res := cluster.Run(cfg, func(r *mpi.Rank) {
		right := (r.ID() + 1) % r.Size()
		left := (r.ID() - 1 + r.Size()) % r.Size()
		for step := 0; step < 4; step++ {
			s := r.Isend(right, step, 512<<10)
			q := r.Irecv(left, step)
			r.Compute(800 * time.Microsecond)
			r.Waitall(s, q)
		}
	})
	got := report.TimelineString(traces, res.Transfers,
		report.TimelineConfig{Width: 80, Duration: res.Duration})

	golden := filepath.Join("testdata", "timeline_ring.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("timeline output changed; run with -update if intentional.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
