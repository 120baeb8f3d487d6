package scenario

import (
	"fmt"
	"strings"

	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/fabric"
	"ovlp/internal/micro"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/progress"
)

// RegionExchange labels the monitored section around each exchange
// iteration, so overlap assertions can scope to it.
const RegionExchange = "exchange"

// program returns the per-rank main for the workload, already scaled
// for smoke mode (reduced reps/iterations; the mix is unchanged).
func (w *Workload) program(smoke bool) func(r *mpi.Rank) {
	reps := w.Reps
	iters := w.Iters
	if smoke {
		if reps > smokeReps {
			reps = smokeReps
		}
		if iters == 0 || iters > smokeIters {
			iters = smokeIters
		}
	}
	switch w.Kind {
	case "exchange":
		size, compute := w.Size.N(), w.Compute.D()
		return func(r *mpi.Rank) {
			// Ring exchange: Isend to the right neighbour, Irecv from
			// the left, compute while both are in flight. With two
			// ranks this degenerates to the paper's pairwise
			// microbenchmark shape.
			right := (r.ID() + 1) % r.Size()
			left := (r.ID() + r.Size() - 1) % r.Size()
			for i := 0; i < reps; i++ {
				r.PushRegion(RegionExchange)
				sq := r.Isend(right, 0, size)
				rq := r.Irecv(left, 0)
				r.Compute(compute)
				r.Waitall(sq, rq)
				r.PopRegion()
			}
		}
	case "nas":
		bench := strings.ToUpper(w.Bench)
		class := nas.ClassS
		if w.Class != "" {
			class = nas.Class(strings.ToUpper(w.Class)[0])
		}
		return func(r *mpi.Rank) {
			nas.Run(bench, r, nas.Params{Class: class, MaxIters: iters})
		}
	case "coll":
		start, _ := mpi.CollStart(w.Op)
		size, compute, polls := w.Size.N(), w.Compute.D(), w.Polls
		return func(r *mpi.Rank) {
			micro.PolledColl(r, start, size, reps, polls, compute)
		}
	}
	panic("scenario: unvalidated workload kind " + w.Kind)
}

// checkpointable returns the workload's fault-tolerant (stepwise,
// shrink-tolerant) form for crash scenarios, scaled for smoke mode.
// Only workloads with a recoverable structure have one: the ring
// exchange micro and the NPB CG/FT/MG kernels.
func (w *Workload) checkpointable(smoke bool) (cluster.Checkpointable, error) {
	reps, iters := w.Reps, w.Iters
	if smoke {
		if reps > smokeReps {
			reps = smokeReps
		}
		if iters == 0 || iters > smokeIters {
			iters = smokeIters
		}
	}
	switch w.Kind {
	case "exchange":
		return &micro.ExchangeWorkload{
			MsgSize:   w.Size.N(),
			Compute:   w.Compute.D(),
			StepCount: reps,
		}, nil
	case "nas":
		class := nas.ClassS
		if w.Class != "" {
			class = nas.Class(strings.ToUpper(w.Class)[0])
		}
		wl, ok := nas.CheckpointableKernel(strings.ToLower(w.Bench), nas.Params{Class: class, MaxIters: iters})
		if !ok {
			return nil, fmt.Errorf("crash scenarios support nas cg, ft and mg, not %s", strings.ToUpper(w.Bench))
		}
		return wl, nil
	}
	return nil, fmt.Errorf("crash scenarios need a checkpointable workload (exchange, or nas cg/ft/mg), not %q", w.Kind)
}

// mpiConfig fills the library configuration the workload asks for.
func (s *Scenario) mpiConfig() (mpi.Config, error) {
	proto, err := s.protocol()
	if err != nil {
		return mpi.Config{}, err
	}
	cfg := mpi.Config{Protocol: proto}
	w := &s.Workload
	if w.Kind == "coll" {
		if w.Algo != "" {
			if cfg.CollAlgo, err = coll.ParseAlgo(w.Algo); err != nil {
				return mpi.Config{}, err
			}
		}
		cfg.CollChunk = w.Chunk.N()
		if w.Progress != "" {
			mode, err := progress.ParseMode(w.Progress)
			if err != nil {
				return mpi.Config{}, err
			}
			cfg.Progress = progress.Config{Mode: mode}
		}
	}
	if s.Reliable != nil {
		retries := s.Reliable.MaxRetries
		if retries < 0 {
			// Scenario semantics: negative disables retransmission.
			retries = fabric.NoRetries
		}
		cfg.Reliable = &fabric.ReliableParams{
			Timeout:    s.Reliable.Timeout.D(),
			MaxRetries: retries,
			Backoff:    s.Reliable.Backoff,
		}
	}
	return cfg, nil
}
