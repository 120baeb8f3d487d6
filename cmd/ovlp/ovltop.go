package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/diagnose"
	"ovlp/internal/fabric"
	"ovlp/internal/scenario"
	"ovlp/internal/timeres"
)

// ovltopMain is the live view over the time-resolved efficiency metrics:
// it runs a chaos scenario (see internal/scenario) with the
// internal/timeres analyzer attached as a streaming trace sink and
// renders the rolling-window POP-style efficiencies — parallel, load
// balance, communication, transfer, serialization — while the run
// progresses, top-style in the terminal.
//
//	ovlp ovltop [-refresh 250ms] [-window 100us] [-rows 12] [-smoke]
//	            [-http :8080] scenario.yaml
//
// Every -refresh interval the screen is redrawn with the most recent
// windows (bars scale with parallel efficiency) and the detected
// compute/exchange phases; when the run finishes the full final
// tables render once. -refresh 0 skips the live redraws and prints
// only the final tables — the mode the tests pin.
//
// When the run lands, the final render also includes the diagnosis
// engine's ranked findings (internal/diagnose) — the same report
// `scenario -findings` and the drivers' -diagnose flag write.
//
// -http serves a minimal self-contained web view: "/" is a single
// embedded HTML page whose script polls /data.json (the analyzer's
// snapshot, same schema as ovlprof -timeresolved -json) and
// /findings.json (the post-run diagnosis; null while the run is
// still in flight) and renders efficiency bars plus the findings
// panel client-side. The server keeps running after the scenario
// completes so the final state can be inspected; interrupt to exit.
func ovltopMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("ovltop", stderr)
	refresh := fs.Duration("refresh", 250*time.Millisecond, "redraw interval (0 = final tables only)")
	window := fs.Duration("window", timeres.DefaultWindow, "metric window length")
	rows := fs.Int("rows", 12, "windows shown per live redraw")
	smoke := fs.Bool("smoke", false, "run the scenario at smoke size")
	httpAddr := fs.String("http", "", `serve the web view on this address (e.g. ":8080")`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ovltop [flags] scenario.yaml")
		return 2
	}
	fail := failWith(stderr, "ovltop", 1)

	s, err := scenario.LoadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}

	// Pre-calibrate on the default cost model so live snapshots price
	// overlap bounds from the first window; the run's own table (the
	// same model) replaces it at the end.
	an := timeres.New(timeres.Options{
		Window: *window,
		Table:  cluster.Calibrate(fabric.CostModel{}, nil, 0),
	})

	type outcome struct {
		rr  *scenario.RunResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rr, err := scenario.Run(s, scenario.Opts{Smoke: *smoke, Findings: true, Sink: an})
		done <- outcome{rr, err}
	}()

	var fh findingsHolder
	var srv *http.Server
	if *httpAddr != "" {
		srv = &http.Server{Addr: *httpAddr, Handler: newHandler(an, s.Name, &fh)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(stderr, "ovltop: http: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "web view on http://localhost%s/\n", *httpAddr)
	}

	// Live loop: redraw until the run lands. The simulation runs in
	// virtual time — small scenarios finish before the first tick, and
	// the final render below still shows everything.
	var out outcome
	if *refresh > 0 {
		tick := time.NewTicker(*refresh)
	live:
		for {
			select {
			case out = <-done:
				tick.Stop()
				break live
			case <-tick.C:
				fmt.Fprint(stdout, "\x1b[2J\x1b[H")
				renderLive(stdout, s.Name, an.Snapshot(), *rows)
			}
		}
	} else {
		out = <-done
	}
	if out.err != nil {
		return fail(out.err)
	}
	rr := out.rr

	// The scenario engine calibrated and finished; settle our analyzer
	// the same way so the final tables carry exact per-window bounds.
	an.SetTable(rr.Res.Calib)
	an.Finalize(rr.Res.Duration)
	if err := an.Err(); err != nil {
		return fail(fmt.Errorf("replay: %w", err))
	}

	if *refresh > 0 {
		fmt.Fprint(stdout, "\x1b[2J\x1b[H")
	}
	snap := an.Snapshot()
	fmt.Fprintf(stdout, "ovltop — scenario %s  procs %d  t=%v  windows %d  phases %d\n\n",
		s.Name, rr.Procs, rr.Res.Duration, len(snap.Windows), len(snap.Phases))
	if err := snap.WriteText(stdout); err != nil {
		return fail(err)
	}
	if rr.Err != nil {
		fmt.Fprintf(stdout, "run error: %v\n", rr.Err)
	}
	if violations := scenario.Evaluate(rr); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(stdout, "VIOLATION %s\n", v)
		}
	}

	fmt.Fprintln(stdout)
	if rr.Findings != nil {
		fh.set(rr.Findings)
		if err := diagnose.WriteText(stdout, rr.Findings); err != nil {
			return fail(err)
		}
	} else {
		fmt.Fprintln(stdout, "findings: no diagnosis (trace stream not replayable)")
	}

	if srv != nil {
		fmt.Fprintf(stdout, "serving web view on %s — interrupt to exit\n", *httpAddr)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		<-ctx.Done()
		stop()
		srv.Close()
	}
	return 0
}

// renderLive draws the compact top-style view: one line per recent
// window with a parallel-efficiency bar, then the phase strip.
func renderLive(w io.Writer, name string, s *timeres.Snapshot, rows int) {
	fmt.Fprintf(w, "ovltop — %s   t=%v   ranks %d   window %v\n\n",
		name, s.Duration, len(s.Ranks), s.Window)
	fmt.Fprintf(w, "%8s %12s  %-22s %6s %6s %6s %6s %6s\n",
		"window", "start", "PE bar", "PE", "LB", "CE", "TE", "SE")
	wins := s.Windows
	if rows > 0 && len(wins) > rows {
		wins = wins[len(wins)-rows:]
	}
	for _, sl := range wins {
		e := sl.Eff
		fmt.Fprintf(w, "%8d %12v  %-22s %6.2f %6.2f %6.2f %6.2f %6.2f\n",
			sl.Index, sl.Start, bar(e.Parallel, 20), e.Parallel,
			e.LoadBalance, e.Comm, e.Transfer, e.Serialization)
	}
	if len(s.Phases) > 0 {
		fmt.Fprintf(w, "\nphases: %s\n", phaseStrip(s.Phases, 60))
	}
}

// bar renders v in [0,1] as a fixed-width block bar.
func bar(v float64, width int) string {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	n := int(v*float64(width) + 0.5)
	return strings.Repeat("█", n) + strings.Repeat("·", width-n)
}

// phaseStrip compresses the phase sequence into a width-bounded strip:
// C for compute, X for exchange, each phase at least one cell wide.
func phaseStrip(phases []timeres.Slice, width int) string {
	total := time.Duration(0)
	for _, p := range phases {
		total += p.End - p.Start
	}
	if total <= 0 {
		return ""
	}
	var b strings.Builder
	for _, p := range phases {
		n := int(float64(p.End-p.Start) / float64(total) * float64(width))
		if n < 1 {
			n = 1
		}
		c := "C"
		if p.Kind == "exchange" {
			c = "X"
		}
		b.WriteString(strings.Repeat(c, n))
	}
	return b.String()
}
