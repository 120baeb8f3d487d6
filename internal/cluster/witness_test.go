package cluster_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"ovlp/internal/clock"
	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/progress"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite testdata/message_witness.txt from the code under test")

const (
	msgWitnessFile  = "testdata/message_witness.txt"
	msgWitnessSeeds = 64
)

const msgWitnessHeader = `# Message witness: one line per seeded random message-passing program —
# seed, what the run was (ranks, protocol, progress mode, traced, truth,
# faults, ft, tight deadline), and the SHA-256 of everything it made observable (ground
# truth with phase tags, per-rank reports, call times, duration, error
# text, exported trace bytes).
#
# Generated by go test ./internal/cluster -run MessageWitness -update at
# the parent of the commit that first changed the per-message path
# (kernel lookahead, fabric and mpi ledgers). A change to the kernel,
# fabric, mpi, overlap or trace layers must reproduce these lines
# unedited: never regenerate them on changed code — a digest that moves
# means the change altered simulated behaviour.
`

// witnessStep is one step of a witness program; every rank executes the
// same list, so matching is guaranteed.
type witnessStep struct {
	kind    int
	size    int
	root    int
	compute time.Duration
	polls   int
}

// witnessSize draws a message size that lands, with equal odds, in the
// eager range, just around the 12 KiB threshold, or in rendezvous range
// (several pipelined fragments).
func witnessSize(rng *rand.Rand) int {
	switch rng.Intn(3) {
	case 0:
		return 1 + rng.Intn(4<<10)
	case 1:
		return 10<<10 + rng.Intn(6<<10)
	}
	return 16<<10 + rng.Intn(240<<10)
}

const witnessStepKinds = 8

// witnessProgram builds the body every rank runs: nonblocking and
// blocking point-to-point, Sendrecv, blocking and nonblocking
// collectives, with computation and polls in between.
func witnessProgram(rng *rand.Rand, procs int) func(r *mpi.Rank) {
	steps := make([]witnessStep, 6+rng.Intn(10))
	for i := range steps {
		steps[i] = witnessStep{
			kind:    rng.Intn(witnessStepKinds),
			size:    witnessSize(rng),
			root:    rng.Intn(procs),
			compute: time.Duration(rng.Intn(300_000)),
			polls:   rng.Intn(3),
		}
	}
	return func(r *mpi.Rank) {
		n := r.Size()
		next, prev := (r.ID()+1)%n, (r.ID()+n-1)%n
		for i, s := range steps {
			switch s.kind {
			case 0: // overlapped nonblocking ring exchange with polls
				sq := r.Isend(next, i, s.size)
				rq := r.Irecv(prev, i)
				chunk := s.compute / time.Duration(s.polls+1)
				for k := 0; k <= s.polls; k++ {
					r.Compute(chunk)
					if k < s.polls {
						r.Iprobe(mpi.AnySource, mpi.AnyTag)
					}
				}
				r.Waitall(sq, rq)
			case 1: // blocking pairwise: the lower rank of a pair sends first
				peer := r.ID() ^ 1
				r.Compute(s.compute / 2)
				if peer >= n {
					continue
				}
				if r.ID() < peer {
					r.Send(peer, i, s.size)
					r.Recv(peer, i)
				} else {
					r.Recv(peer, i)
					r.Send(peer, i, s.size)
				}
			case 2:
				r.Compute(s.compute / 3)
				r.Sendrecv(next, i, s.size, prev, i)
			case 3: // blocking collectives
				r.Compute(s.compute / 2)
				switch s.polls {
				case 0:
					r.Allreduce(8 + s.size%2048)
				case 1:
					r.Bcast(s.root, s.size%(64<<10)+1)
				default:
					r.Barrier()
				}
			case 4:
				r.Compute(s.compute / 4)
				if s.polls == 0 {
					r.Alltoall(1 + s.size%(8<<10))
				} else {
					r.Reduce(s.root, 1+s.size%(32<<10))
				}
			case 5, 6: // nonblocking collective overlapped with compute
				var cr *mpi.CollRequest
				switch (s.size + s.kind) % 5 {
				case 0:
					cr = r.Ibcast(s.root, s.size)
				case 1:
					cr = r.Ireduce(s.root, s.size)
				case 2:
					cr = r.Iallreduce(s.size)
				case 3:
					cr = r.Ialltoall(1 + s.size%(16<<10))
				default:
					cr = r.Ibarrier()
				}
				chunk := s.compute / time.Duration(s.polls+1)
				for k := 0; k <= s.polls; k++ {
					r.Compute(chunk)
					if k < s.polls {
						r.TestColl(cr)
					}
				}
				r.WaitColl(cr)
			case 7: // late receiver: the message sits unexpected
				if r.ID()%2 == 0 {
					q := r.Isend(next, i, s.size)
					r.Compute(s.compute)
					r.Wait(q)
				} else {
					r.Compute(s.compute)
				}
				if prev%2 == 0 {
					r.Recv(prev, i)
				}
			}
		}
	}
}

// witnessWL is the Checkpointable the crash-plan seeds drive.
type witnessWL struct {
	steps, bytes int
	compute      time.Duration
}

func (w *witnessWL) Name() string       { return "witness" }
func (w *witnessWL) Steps() int         { return w.steps }
func (w *witnessWL) StateBytes(int) int { return w.bytes }
func (w *witnessWL) Init(c *mpi.Comm)   { c.Bcast(0, 64) }
func (w *witnessWL) Step(c *mpi.Comm, step int) {
	if n := c.Size(); n > 1 {
		next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
		c.Sendrecv(next, 5, w.bytes, prev, 5)
	}
	c.Host().Compute(w.compute)
	c.Allreduce(8 + step)
}

// msgWitnessRun executes seeded program number seed — on the virtual
// kernel, or on the real-clock one over a clock that moves exactly when
// slept on — and returns a description of the run and the digest of its
// observables.
func msgWitnessRun(t *testing.T, seed int64, stepped bool) (desc, digest string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	traced := seed&1 != 0
	truth := seed&2 != 0
	faulted := seed%3 == 0
	ft := seed%13 == 12
	tight := seed%7 == 5 // a deadline the program cannot meet: the error is a proc dump

	procs := 2 + rng.Intn(4)
	cfg := cluster.Config{
		Procs: procs,
		MPI: mpi.Config{
			Protocol:     mpi.LongProtocol(rng.Intn(2)),
			LeavePinned:  rng.Intn(2) == 0,
			HWTimestamps: rng.Intn(6) == 0,
			CollAlgo:     []coll.Algo{coll.Auto, coll.Binomial, coll.Ring, coll.RecDouble}[rng.Intn(4)],
			CollChunk:    []int{0, 0, 16 << 10}[rng.Intn(3)],
			Progress:     progress.Config{Mode: []progress.Mode{progress.Manual, progress.Piggyback, progress.Thread}[rng.Intn(3)]},
			Instrument: &mpi.InstrumentConfig{
				QueueSize: []int{0, 64}[rng.Intn(2)],
				ModelCost: rng.Intn(4) == 0,
			},
		},
		RecordTruth: truth,
		Deadline:    5 * time.Second,
	}
	if stepped {
		cfg.Backend, cfg.Clock = cluster.BackendReal, &clock.Stepped{}
	}
	var tr *trace.Tracer
	if traced {
		tr = trace.New(trace.Options{})
		cfg.Trace = tr
	}
	if faulted {
		plan := &fabric.FaultPlan{
			Seed: seed,
			Default: fabric.LinkFaults{
				DropRate:  0.02 + 0.08*rng.Float64(),
				DupRate:   0.08 * rng.Float64(),
				JitterMax: time.Duration(rng.Int63n(int64(2 * time.Microsecond))),
			},
		}
		if rng.Intn(2) == 0 {
			start := vtime.Time(time.Duration(1+rng.Intn(300)) * time.Microsecond)
			plan.Stalls = []fabric.StallWindow{{
				Node: fabric.NodeID(rng.Intn(procs)), Start: start, End: start + vtime.Time(80*time.Microsecond),
			}}
		}
		if rng.Intn(3) == 0 {
			plan.Schedule = []fabric.FaultEvent{{Links: map[fabric.Link]fabric.LinkFaults{
				{Src: 0, Dst: 1}: {DropEvery: 3 + rng.Intn(4), BandwidthFactor: 0.5},
			}}}
		}
		cfg.Faults = plan
		if rng.Intn(4) == 0 {
			// A budget loss exhausts: the error is a structured CommError.
			plan.Default.DropRate += 0.25
			cfg.MPI.Reliable = &fabric.ReliableParams{MaxRetries: 1}
		}
	}
	if tight {
		cfg.Deadline = time.Duration(100+rng.Intn(400)) * time.Microsecond
	}

	h := sha256.New()
	var ranks []*mpi.Rank
	var res cluster.Result
	var err error
	if ft {
		if procs < 3 {
			procs = 3
			cfg.Procs = 3
		}
		cfg.Crashes = &fabric.CrashPlan{Crashes: []fabric.Crash{{
			Node: fabric.NodeID(1 + rng.Intn(procs-1)),
			At:   vtime.Time(time.Duration(150+rng.Intn(500)) * time.Microsecond),
		}}}
		wl := &witnessWL{steps: 4 + rng.Intn(4), bytes: witnessSize(rng), compute: time.Duration(10+rng.Intn(40)) * time.Microsecond}
		opt := cluster.FTOptions{Mode: cluster.RecoveryMode(rng.Intn(2)), CheckpointEvery: 1 + rng.Intn(2)}
		var fres cluster.FTResult
		fres, err = cluster.RunFT(cfg, opt, wl)
		res = fres.Result
		fmt.Fprintf(h, "ft epochs %d failed %v survivors %v checkpoints %d replayed %d completed %v\n",
			fres.Epochs, fres.Failed, fres.Survivors, fres.Checkpoints, fres.ReplayedSteps, fres.Completed)
	} else {
		body := witnessProgram(rng, procs)
		res, err = cluster.RunE(cfg, func(r *mpi.Rank) {
			ranks = append(ranks, r)
			body(r)
		})
	}

	fmt.Fprintf(h, "duration %d\nerr %v\n", int64(res.Duration), err)
	if res.Transfers == nil {
		fmt.Fprintf(h, "transfers nil\n")
	} else {
		fmt.Fprintf(h, "transfers %d\n", len(res.Transfers))
		for _, x := range res.Transfers {
			fmt.Fprintf(h, "%d %d>%d %d [%d,%d] %q\n", x.XferID, x.Src, x.Dst, x.Size, int64(x.Start), int64(x.End), x.Phase)
		}
	}
	reports, jerr := json.Marshal(res.Reports)
	if jerr != nil {
		t.Fatalf("seed %d: marshal reports: %v", seed, jerr)
	}
	fmt.Fprintf(h, "reports %s\nmpitimes %v\nfaults %+v\nrel %+v\nrankerrs %v\n",
		reports, res.MPITimes, res.FaultStats, res.RelStats, res.RankErrors)
	sort.Slice(ranks, func(i, j int) bool { return ranks[i].ID() < ranks[j].ID() })
	for _, r := range ranks {
		ct := r.CallTimes()
		ops := make([]string, 0, len(ct))
		for op := range ct {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		fmt.Fprintf(h, "calltimes %d:", r.ID())
		for _, op := range ops {
			fmt.Fprintf(h, " %s=%d", op, int64(ct[op]))
		}
		fmt.Fprintf(h, "\n")
	}
	if tr != nil {
		var b bytes.Buffer
		if werr := tr.WriteChrome(&b); werr != nil {
			t.Fatalf("seed %d: export trace: %v", seed, werr)
		}
		fmt.Fprintf(h, "trace %d %x\n", b.Len(), sha256.Sum256(b.Bytes()))
	} else {
		fmt.Fprintf(h, "untraced\n")
	}

	outcome := "ok"
	if err != nil {
		outcome = "err"
	}
	flags := ""
	for _, f := range []struct {
		on   bool
		name string
	}{{traced, "traced"}, {truth, "truth"}, {faulted, "faults"}, {ft, "ft"}, {tight, "tight"}} {
		if f.on {
			flags += "+" + f.name
		}
	}
	desc = fmt.Sprintf("p%d/%v/%v%s/%s", procs, cfg.MPI.Protocol, cfg.MPI.Progress.Mode, flags, outcome)
	return desc, fmt.Sprintf("%x", h.Sum(nil))
}

// TestMessageWitness pins what a run makes observable one layer above
// the kernel witness (internal/vtime): the fabric's ground truth and
// phase tags, every rank's report and call times, the run's duration
// and error, and the exported trace, over seeded random programs. The
// digests in testdata were generated before the per-message path was
// optimised (see the file's header); they are the oracle for the code
// that replaced it and must be reproduced unedited — by the virtual
// kernel and by the real-clock kernel on a stepped clock alike: there is
// one fabric path, so faults, crash plans, deadlines and traces come out
// the same whichever way time passes.
func TestMessageWitness(t *testing.T) {
	t.Run("virtual", func(t *testing.T) { messageWitness(t, false) })
	t.Run("stepped", func(t *testing.T) {
		if *update {
			t.Skip("the witness is only ever written from the virtual kernel")
		}
		messageWitness(t, true)
	})
}

func messageWitness(t *testing.T, stepped bool) {
	got := make([]string, msgWitnessSeeds)
	matrix := map[string]int{}
	for seed := range got {
		desc, digest := msgWitnessRun(t, int64(seed), stepped)
		got[seed] = fmt.Sprintf("%d %s %s", seed, desc, digest)
		parts := strings.Split(desc, "/")
		matrix[parts[len(parts)-1]]++
		for _, f := range []string{"traced", "truth", "faults", "ft", "tight"} {
			if strings.Contains(desc, "+"+f) {
				matrix[f]++
			}
		}
	}
	t.Logf("over %d seeds: %v", msgWitnessSeeds, matrix)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(msgWitnessFile, []byte(msgWitnessHeader+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(msgWitnessFile)
	if err != nil {
		t.Fatalf("missing witness file (generate with -update on the reference commit): %v", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(want) != msgWitnessSeeds {
		t.Fatalf("%s has %d lines, want %d", msgWitnessFile, len(want), msgWitnessSeeds)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("seed %d: run diverged from the reference:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
