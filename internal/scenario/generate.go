package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"ovlp/internal/nas"
)

// Generate derives n stress scenarios from seed, deterministically:
// the same (seed, n) always yields the same scenarios, so a generated
// corpus entry can be regenerated bit-for-bit from its header. Each
// scenario cycles through one of four chaos archetypes — a cascading
// link-failure chain, a correlated rack outage, a bandwidth-
// degradation ramp with a DMA-stall storm, and a jitter-spike train —
// over randomized workloads, and carries the universal robustness
// assertions (bounds_valid, conservation, determinism, duration,
// error_absent): whatever the chaos, the instrumentation's bounds
// must stay sound and the run reproducible.
func Generate(seed int64, n int) []*Scenario {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Scenario, 0, n)
	for i := 0; i < n; i++ {
		var s *Scenario
		switch i % 4 {
		case 0:
			s = genCascade(rng)
		case 1:
			s = genRackOutage(rng)
		case 2:
			s = genRampStorm(rng)
		default:
			s = genJitterTrain(rng)
		}
		s.Name = fmt.Sprintf("gen-%04x-%02d-%s", seed&0xffff, i, s.Name)
		s.Seed = rng.Int63n(1 << 32)
		s.Deadline = Dur(20 * time.Second)
		s.Assertions = append(s.Assertions,
			Assertion{Check: "bounds_valid"},
			Assertion{Check: "conservation"},
			Assertion{Check: "determinism"},
			Assertion{Check: "error_absent", Error: "any"},
			Assertion{Check: "duration", Max: s.Deadline},
		)
		if err := s.Validate(); err != nil {
			panic("scenario: generator produced invalid scenario: " + err.Error())
		}
		out = append(out, s)
	}
	return out
}

// genWorkload picks a survivable workload mix.
func genWorkload(rng *rand.Rand, procs int) Workload {
	switch rng.Intn(3) {
	case 0:
		return Workload{
			Kind:    "exchange",
			Size:    Size(8 << (10 + rng.Intn(5))), // 8K..128K
			Reps:    6 + rng.Intn(10),
			Compute: Dur(time.Duration(100+rng.Intn(400)) * time.Microsecond),
		}
	case 1:
		ops := []string{"ibcast", "iallreduce", "ialltoall"}
		return Workload{
			Kind:    "coll",
			Op:      ops[rng.Intn(len(ops))],
			Size:    Size(4 << (10 + rng.Intn(4))), // 4K..32K
			Reps:    4 + rng.Intn(6),
			Compute: Dur(time.Duration(150+rng.Intn(350)) * time.Microsecond),
			Polls:   1 + rng.Intn(3),
		}
	default:
		// Only benches whose grid constraints the machine satisfies.
		benches := []string{"LU", "MG", "FT", "IS"}
		w := Workload{Kind: "nas", Class: "S", Iters: 3 + rng.Intn(4)}
		for _, b := range []string{"CG", "BT", "SP"} {
			if nas.Check(b, nas.ClassS, procs) == nil {
				benches = append(benches, b)
			}
		}
		w.Bench = benches[rng.Intn(len(benches))]
		return w
	}
}

// genCascade: a chain of link failures marching around the ring —
// link (i -> i+1) degrades hard at t_i, healing as the next one goes.
func genCascade(rng *rand.Rand) *Scenario {
	procs := 4 + rng.Intn(3) // 4..6
	s := &Scenario{Name: "cascade", Procs: procs, Workload: genWorkload(rng, procs)}
	step := time.Duration(300+rng.Intn(400)) * time.Microsecond
	for i := 0; i < procs; i++ {
		at := time.Duration(i) * step
		s.Chaos = append(s.Chaos, ChaosEvent{
			Label: fmt.Sprintf("cascade-%d", i),
			At:    Dur(at),
			Clear: Dur(at + 2*step),
			Drop:  0.15 + 0.2*rng.Float64(),
			Links: []string{fmt.Sprintf("%d->%d", i, (i+1)%procs)},
		})
	}
	return s
}

// genRackOutage: a correlated node group (the "rack") loses quality on
// every touching link for a window, then heals.
func genRackOutage(rng *rand.Rand) *Scenario {
	procs := 5 + rng.Intn(3) // 5..7
	s := &Scenario{Name: "rack", Procs: procs, Workload: genWorkload(rng, procs)}
	rack := []int{0, 1}
	if rng.Intn(2) == 1 {
		rack = []int{procs - 2, procs - 1}
	}
	at := time.Duration(200+rng.Intn(500)) * time.Microsecond
	s.Chaos = append(s.Chaos, ChaosEvent{
		Label:  "rack-outage",
		At:     Dur(at),
		Clear:  Dur(at + time.Duration(1+rng.Intn(2))*time.Millisecond),
		Drop:   0.2 + 0.15*rng.Float64(),
		Jitter: Dur(time.Duration(1+rng.Intn(4)) * time.Microsecond),
		Nodes:  rack,
	})
	return s
}

// genRampStorm: fabric-wide bandwidth degradation ramping in, plus a
// storm of short DMA stalls on random NICs.
func genRampStorm(rng *rand.Rand) *Scenario {
	procs := 4 + rng.Intn(2) // 4..5
	s := &Scenario{Name: "ramp", Procs: procs, Workload: genWorkload(rng, procs)}
	at := time.Duration(100+rng.Intn(300)) * time.Microsecond
	s.Chaos = append(s.Chaos, ChaosEvent{
		Label:     "bandwidth-ramp",
		At:        Dur(at),
		Ramp:      Dur(time.Duration(500+rng.Intn(1000)) * time.Microsecond),
		Clear:     Dur(at + 4*time.Millisecond),
		Bandwidth: 0.25 + 0.25*rng.Float64(),
	})
	storms := 2 + rng.Intn(3)
	for i := 0; i < storms; i++ {
		s.Stalls = append(s.Stalls, Stall{
			Node:  rng.Intn(procs),
			Start: Dur(at + time.Duration(i*200)*time.Microsecond),
			Dur:   Dur(time.Duration(20+rng.Intn(60)) * time.Microsecond),
		})
	}
	return s
}

// genJitterTrain: short, sharp jitter spikes arriving in a train,
// occasionally with packet duplication.
func genJitterTrain(rng *rand.Rand) *Scenario {
	procs := 4 + rng.Intn(3)
	s := &Scenario{Name: "jitter", Procs: procs, Workload: genWorkload(rng, procs)}
	spikes := 3 + rng.Intn(3)
	period := time.Duration(400+rng.Intn(400)) * time.Microsecond
	for i := 0; i < spikes; i++ {
		at := time.Duration(i) * period
		ev := ChaosEvent{
			Label:  fmt.Sprintf("spike-%d", i),
			At:     Dur(at),
			Clear:  Dur(at + period/3),
			Jitter: Dur(time.Duration(2+rng.Intn(6)) * time.Microsecond),
		}
		if rng.Intn(3) == 0 {
			ev.Dup = 0.1 + 0.1*rng.Float64()
		}
		s.Chaos = append(s.Chaos, ev)
	}
	return s
}
