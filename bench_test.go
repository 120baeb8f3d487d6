// Package ovlp's root benchmark harness regenerates every figure of
// the paper's evaluation (Figs. 3-20) as a testing.B target, reporting
// the figure's headline quantities as custom benchmark metrics:
//
//	go test -bench=. -benchmem
//
// Figure-to-benchmark map:
//
//	Fig 3-9   BenchmarkFigN...          microbenchmark sweeps
//	Fig 10-13 BenchmarkFig10NASBT etc.  NAS overlap characterizations
//	Fig 14-18 BenchmarkFig14to18SPStudy SP original vs modified
//	Fig 19    BenchmarkFig19MGARMCI     one-sided MG variants
//	Fig 20    BenchmarkFig20Overhead    instrumentation overhead
//
// The Ablation benchmarks quantify the design choices DESIGN.md calls
// out (monitor queue size, eager threshold, fragment size,
// registration cache); the Monitor benchmarks measure the real
// wall-clock cost of the instrumentation hot path itself.
package ovlp

import (
	"testing"
	"time"

	"ovlp/internal/armci"
	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/comb"
	"ovlp/internal/micro"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/overlap"
)

// benchReps keeps the microbenchmark sweeps quick under -bench.
const benchReps = 50

// runFigure executes one micro sweep and reports the endpoint's
// overlap bounds and wait time.
func runFigure(b *testing.B, fig int, sender bool) {
	b.Helper()
	var last micro.Point
	for i := 0; i < b.N; i++ {
		pts := micro.PaperFigure(fig, benchReps).Run()
		last = pts[len(pts)-1]
	}
	if sender {
		b.ReportMetric(last.SenderMin, "min%")
		b.ReportMetric(last.SenderMax, "max%")
		b.ReportMetric(float64(last.SenderWait.Microseconds()), "wait_µs")
	} else {
		b.ReportMetric(last.ReceiverMin, "min%")
		b.ReportMetric(last.ReceiverMax, "max%")
		b.ReportMetric(float64(last.ReceiverWait.Microseconds()), "wait_µs")
	}
}

func BenchmarkFig3EagerIsendIrecv(b *testing.B)     { runFigure(b, 3, true) }
func BenchmarkFig4PipelinedIsendRecv(b *testing.B)  { runFigure(b, 4, true) }
func BenchmarkFig5DirectIsendRecv(b *testing.B)     { runFigure(b, 5, true) }
func BenchmarkFig6PipelinedSendIrecv(b *testing.B)  { runFigure(b, 6, false) }
func BenchmarkFig7DirectSendIrecv(b *testing.B)     { runFigure(b, 7, false) }
func BenchmarkFig8PipelinedIsendIrecv(b *testing.B) { runFigure(b, 8, true) }
func BenchmarkFig9DirectIsendIrecv(b *testing.B)    { runFigure(b, 9, true) }

// benchNAS characterizes one NAS benchmark and reports its bounds.
func benchNAS(b *testing.B, name string, class nas.Class, procs int, proto mpi.LongProtocol) {
	b.Helper()
	var r nas.OverlapResult
	for i := 0; i < b.N; i++ {
		_, r = nas.CharacterizeAllReports(name, class, procs, nas.Options{Protocol: proto, MaxIters: 3})
	}
	b.ReportMetric(r.MinPct, "min%")
	b.ReportMetric(r.MaxPct, "max%")
	b.ReportMetric(float64(r.Transfers), "xfers")
}

func BenchmarkFig10NASBT(b *testing.B) { benchNAS(b, nas.BT, nas.ClassA, 9, mpi.PipelinedRDMA) }
func BenchmarkFig11NASCG(b *testing.B) { benchNAS(b, nas.CG, nas.ClassA, 8, mpi.PipelinedRDMA) }
func BenchmarkFig12NASLU(b *testing.B) { benchNAS(b, nas.LU, nas.ClassA, 8, mpi.DirectRDMARead) }
func BenchmarkFig13NASFT(b *testing.B) { benchNAS(b, nas.FT, nas.ClassA, 8, mpi.DirectRDMARead) }

// BenchmarkFig14to18SPStudy runs the SP case study (class A, 9 procs
// — the paper's 98% configuration) and reports the section bounds and
// MPI-time change.
func BenchmarkFig14to18SPStudy(b *testing.B) {
	var orig, mod nas.SPResult
	for i := 0; i < b.N; i++ {
		orig = nas.CharacterizeSP(nas.ClassA, 9, false, nas.Options{MaxIters: 3})
		mod = nas.CharacterizeSP(nas.ClassA, 9, true, nas.Options{MaxIters: 3})
	}
	b.ReportMetric(orig.SectionMaxPct, "orig_max%")
	b.ReportMetric(mod.SectionMaxPct, "mod_max%")
	b.ReportMetric(mod.SectionMinPct, "mod_min%")
	b.ReportMetric(100*(float64(mod.MPITime)-float64(orig.MPITime))/float64(orig.MPITime), "mpi_change%")
}

// BenchmarkFig19MGARMCI reports the blocking/non-blocking contrast.
func BenchmarkFig19MGARMCI(b *testing.B) {
	var blk, nb nas.OverlapResult
	for i := 0; i < b.N; i++ {
		blk = nas.CharacterizeMGARMCI(nas.ClassA, 8, nas.MGBlocking, nas.Options{MaxIters: 2})
		nb = nas.CharacterizeMGARMCI(nas.ClassA, 8, nas.MGNonblocking, nas.Options{MaxIters: 2})
	}
	b.ReportMetric(blk.MaxPct, "blk_max%")
	b.ReportMetric(nb.MaxPct, "nb_max%")
	b.ReportMetric(nb.MinPct, "nb_min%")
}

// BenchmarkFig20Overhead reports the modelled instrumentation
// overhead for NAS LU (the paper's bound: <0.9%).
func BenchmarkFig20Overhead(b *testing.B) {
	var r nas.OverheadResult
	for i := 0; i < b.N; i++ {
		r = nas.MeasureOverhead(nas.LU, nas.ClassW, 4, nas.Options{Protocol: mpi.DirectRDMARead, MaxIters: 3})
	}
	b.ReportMetric(r.OverheadPct, "overhead%")
}

// --- Instrumentation hot path (real wall-clock cost) ---------------

type nowClock struct{ t time.Duration }

func (c *nowClock) Now() time.Duration { c.t += 100 * time.Nanosecond; return c.t }

func benchTable(b *testing.B) *calib.Table {
	b.Helper()
	tbl, err := calib.NewTable([]calib.Point{
		{Size: 1, Time: 5 * time.Microsecond},
		{Size: 1 << 20, Time: 1200 * time.Microsecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkMonitorCallPair measures the cost of one
// CALL_ENTER/CALL_EXIT pair — the instrumentation added to every
// library call.
func BenchmarkMonitorCallPair(b *testing.B) {
	m := overlap.NewMonitor(overlap.Config{Clock: &nowClock{}, Table: benchTable(b)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.CallEnter()
		m.CallExit()
	}
}

// BenchmarkMonitorTransfer measures a full instrumented transfer:
// enter, begin, exit, enter, end, exit.
func BenchmarkMonitorTransfer(b *testing.B) {
	m := overlap.NewMonitor(overlap.Config{Clock: &nowClock{}, Table: benchTable(b)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		m.CallEnter()
		m.XferBegin(id, 64<<10)
		m.CallExit()
		m.CallEnter()
		m.XferEnd(id, 0)
		m.CallExit()
	}
}

// BenchmarkTableLookup measures the calibration-table interpolation on
// the processing path.
func BenchmarkTableLookup(b *testing.B) {
	tbl := benchTable(b)
	b.ReportAllocs()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += tbl.XferTime(i % (2 << 20))
	}
	_ = sink
}

// --- Ablations ------------------------------------------------------

// BenchmarkAblationQueueSize compares tiny and large monitor queues on
// a fixed workload: the measures must match, only processing cadence
// differs.
func BenchmarkAblationQueueSize(b *testing.B) {
	for _, size := range []int{16, 4096} {
		b.Run(map[int]string{16: "queue16", 4096: "queue4096"}[size], func(b *testing.B) {
			var min float64
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cluster.Config{
					Procs: 2,
					MPI: mpi.Config{
						Protocol:   mpi.DirectRDMARead,
						Instrument: &mpi.InstrumentConfig{QueueSize: size},
					},
				}, pingPongWorkload)
				min = res.Reports[0].Total().MinPercent()
			}
			b.ReportMetric(min, "min%")
		})
	}
}

// BenchmarkAblationEagerThreshold shows the protocol crossover: the
// same 32 KiB exchange under a threshold below and above the message
// size.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, thr := range []int{8 << 10, 64 << 10} {
		name := "rendezvous"
		if thr > 32<<10 {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			var maxPct float64
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cluster.Config{
					Procs: 2,
					MPI: mpi.Config{
						Protocol:       mpi.DirectRDMARead,
						EagerThreshold: thr,
						Instrument:     &mpi.InstrumentConfig{},
					},
				}, pingPongWorkload)
				maxPct = res.Reports[0].Total().MaxPercent()
			}
			b.ReportMetric(maxPct, "max%")
		})
	}
}

// BenchmarkAblationFragmentSize varies the pipelined protocol's
// fragment size; smaller fragments mean more overlap opportunity for
// the first fragment but more per-fragment overhead.
func BenchmarkAblationFragmentSize(b *testing.B) {
	for _, frag := range []int{16 << 10, 256 << 10} {
		name := map[int]string{16 << 10: "frag16K", 256 << 10: "frag256K"}[frag]
		b.Run(name, func(b *testing.B) {
			var dur time.Duration
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cluster.Config{
					Procs: 2,
					MPI: mpi.Config{
						Protocol:     mpi.PipelinedRDMA,
						FragmentSize: frag,
					},
				}, pingPongWorkload)
				dur = res.Duration
			}
			b.ReportMetric(float64(dur.Microseconds()), "vtime_µs")
		})
	}
}

// BenchmarkAblationRegistrationCache compares rendezvous with and
// without the leave_pinned registration cache.
func BenchmarkAblationRegistrationCache(b *testing.B) {
	for _, pinned := range []bool{false, true} {
		name := "pin-every-time"
		if pinned {
			name = "leave-pinned"
		}
		b.Run(name, func(b *testing.B) {
			var dur time.Duration
			for i := 0; i < b.N; i++ {
				res := cluster.Run(cluster.Config{
					Procs: 2,
					MPI: mpi.Config{
						Protocol:    mpi.DirectRDMARead,
						LeavePinned: pinned,
					},
				}, pingPongWorkload)
				dur = res.Duration
			}
			b.ReportMetric(float64(dur.Microseconds()), "vtime_µs")
		})
	}
}

// pingPongWorkload is the fixed workload the ablations run: 30
// Isend/Irecv exchanges of 32 KiB with computation between initiation
// and completion.
func pingPongWorkload(r *mpi.Rank) {
	peer := 1 - r.ID()
	for i := 0; i < 30; i++ {
		s := r.Isend(peer, 0, 32<<10)
		q := r.Irecv(peer, 0)
		r.Compute(200 * time.Microsecond)
		r.Iprobe(mpi.AnySource, mpi.AnyTag)
		r.Compute(200 * time.Microsecond)
		r.Waitall(s, q)
	}
}

// BenchmarkSimulatorEventRate measures the raw discrete-event
// throughput of the substrate (virtual-time events per second of wall
// time), the quantity that bounds how large a NAS configuration the
// harness can simulate.
func BenchmarkSimulatorEventRate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cluster.Run(cluster.Config{Procs: 4}, func(r *mpi.Rank) {
			for k := 0; k < 50; k++ {
				r.Allreduce(8)
			}
		})
	}
}

// --- Extensions beyond the paper ------------------------------------

// BenchmarkHWTimestampsBracketWidth contrasts the classical bounds
// bracket with the NIC-hardware-time-stamp mode (the paper's named
// future work): the width metric collapses to zero under hw mode.
func BenchmarkHWTimestampsBracketWidth(b *testing.B) {
	for _, hw := range []bool{false, true} {
		name := "classical"
		if hw {
			name = "hw-stamps"
		}
		b.Run(name, func(b *testing.B) {
			var width float64
			for i := 0; i < b.N; i++ {
				reps, _ := nas.CharacterizeAllReports(nas.LU, nas.ClassW, 4, nas.Options{
					Protocol:     mpi.DirectRDMARead,
					MaxIters:     3,
					HWTimestamps: hw,
				})
				tot := reps[0].Total()
				width = tot.MaxPercent() - tot.MinPercent()
			}
			b.ReportMetric(width, "bracket_width_pct")
		})
	}
}

// BenchmarkCOMBBaseline runs the related-work COMB suite (post-work-
// wait vs polling methods) at one representative point per method.
func BenchmarkCOMBBaseline(b *testing.B) {
	for _, method := range []comb.Method{comb.PostWorkWait, comb.Polling} {
		b.Run(method.String(), func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				pts := comb.Config{
					Method:   method,
					Protocol: mpi.DirectRDMARead,
					MsgSize:  1 << 20,
					Work:     []time.Duration{1500 * time.Microsecond},
					Reps:     20,
				}.Run()
				eff = pts[0].OverlapEfficiency
			}
			b.ReportMetric(eff*100, "overlap_eff_pct")
		})
	}
}

// BenchmarkStridedVsContiguous quantifies the per-segment cost of
// ARMCI strided puts against a contiguous put of the same volume.
func BenchmarkStridedVsContiguous(b *testing.B) {
	for _, strided := range []bool{false, true} {
		name := "contiguous"
		if strided {
			name = "strided256"
		}
		b.Run(name, func(b *testing.B) {
			var dur time.Duration
			for i := 0; i < b.N; i++ {
				res, err := cluster.RunARMCI(cluster.ARMCIConfig{Procs: 2}, func(p *armci.Proc) {
					if p.ID() == 0 {
						for k := 0; k < 20; k++ {
							if strided {
								p.PutStrided(1, 256, 1024)
							} else {
								p.Put(1, 256<<10)
							}
						}
					}
					p.Barrier()
				})
				if err != nil {
					b.Fatal(err)
				}
				dur = res.Duration
			}
			b.ReportMetric(float64(dur.Microseconds()), "vtime_µs")
		})
	}
}
