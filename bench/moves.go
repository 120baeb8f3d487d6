package main

import "strings"

// move names an end-to-end metric on a workload that a per-layer
// metric is expected to move when its layer gets faster or slower.
type move struct{ metric, workload string }

// moves is written down before anything is optimised: for each
// per-layer metric, which end-to-end numbers it should move. A change
// to a layer that moves a number not listed here — or fails to move
// one that is — did something other than what it claimed. The ladder
// metrics are keyed without their .lu/.coll suffix. Composite and
// informational metrics point at the workload they summarise.
var moves = map[string][]move{
	"cluster.bare_ms":     {{"ops_per_s", "nas_lu"}, {"ops_per_s", "coll_sweep"}},
	"overlap.monitor_ms":  {{"ops_per_s", "nas_lu"}},
	"calib.percall_ms":    {{"ops_per_s", "nas_lu"}, {"allocs_per_op", "nas_lu"}, {"ops_per_s", "scenario_corpus"}},
	"trace.emit_ms":       {{"ops_per_s", "scenario_corpus"}},
	"trace.retain_ms":     {{"ops_per_s", "scenario_corpus"}, {"bytes_per_op", "scenario_corpus"}},
	"timeres.sink_ms":     {{"ops_per_s", "scenario_corpus"}},
	"trace.export_ms":     {{"ops_per_s", "scenario_corpus"}, {"allocs_per_op", "scenario_corpus"}, {"setup_s", "trace_analysis"}},
	"profile.analysis_ms": {{"ops_per_s", "scenario_corpus"}},

	"vtime.handoff_ns":     {{"ops_per_s", "nas_lu"}},
	"vtime.handoff_allocs": {{"allocs_per_op", "nas_lu"}},
	"vtime.compute_ns":     {{"ops_per_s", "nas_lu"}},
	"vtime.timer_ns":       {{"ops_per_s", "coll_sweep"}},
	"vtime.spawn_ns":       {{"ops_per_s", "coll_sweep"}, {"allocs_per_op", "coll_sweep"}},
	"vtime.real_slowdown":  {{"ops_per_s", "nas_lu"}},

	"fabric.post_complete_ns.8B":   {{"ops_per_s", "nas_lu"}},
	"fabric.post_complete_ns.1MiB": {{"ops_per_s", "coll_sweep"}},
	"fabric.post_complete_allocs":  {{"allocs_per_op", "nas_lu"}, {"allocs_per_op", "coll_sweep"}},
	"fabric.transfers_per_op":      {{"sim_events_per_s", "nas_lu"}, {"sim_events_per_s", "coll_sweep"}},

	"mpi.eager_rt_ns":          {{"ops_per_s", "nas_lu"}},
	"mpi.rndv_pipelined_rt_ns": {{"ops_per_s", "coll_sweep"}},
	"mpi.rndv_direct_rt_ns":    {{"ops_per_s", "coll_sweep"}},
	"mpi.allreduce_ms":         {{"ops_per_s", "coll_sweep"}},
	"mpi.allreduce_allocs":     {{"allocs_per_op", "coll_sweep"}},

	"coll.build_ns.p16":           {{"ops_per_s", "coll_sweep"}},
	"coll.build_ns.p1024":         {{"ops_per_s", "coll_sweep"}},
	"progress.thread_over_manual": {{"op_ms_p50", "coll_sweep"}},

	"overlap.call_pair_ns": {{"ops_per_s", "nas_lu"}},
	"overlap.xfer_ns":      {{"ops_per_s", "nas_lu"}},
	"overlap.allocs":       {{"allocs_per_op", "nas_lu"}},
	"calib.lookup_ns":      {{"ops_per_s", "nas_lu"}},
	"calib.calibrate_ms":   {{"ops_per_s", "nas_lu"}, {"setup_s", "trace_analysis"}},

	"trace.span_ns.retained":     {{"ops_per_s", "scenario_corpus"}},
	"trace.span_ns.metrics_only": {{"ops_per_s", "scenario_corpus"}},
	"trace.span_ns.sink":         {{"ops_per_s", "scenario_corpus"}},
	"trace.export_mb_per_s":      {{"ops_per_s", "scenario_corpus"}, {"setup_s", "trace_analysis"}},
	"trace.records_per_op.lu":    {{"sim_events_per_s", "nas_lu"}},

	"profile.ingest_mb_per_s": {{"ops_per_s", "trace_analysis"}},
	"profile.ingest_allocs":   {{"allocs_per_op", "trace_analysis"}},
	"profile.feed_ns":         {{"ops_per_s", "trace_analysis"}},
	"profile.analyze_ms":      {{"ops_per_s", "trace_analysis"}},
	"profile.encode_ms":       {{"ops_per_s", "trace_analysis"}},
	"timeres.rec_ns":          {{"ops_per_s", "scenario_corpus"}},
	"timeres.from_input_ms":   {{"ops_per_s", "trace_analysis"}},
	"diagnose.analyze_ms":     {{"ops_per_s", "trace_analysis"}},
	"diagnose.diff_ms":        {{"ops_per_s", "trace_analysis"}},

	"scenario.load_ms":      {{"ops_per_s", "scenario_corpus"}},
	"scenario.run_ms.calm":  {{"ops_per_s", "scenario_corpus"}},
	"scenario.run_ms.chaos": {{"ops_per_s", "scenario_corpus"}},
	"scenario.run_ms.ft":    {{"ops_per_s", "scenario_corpus"}},
	"scenario.run_ms.gen":   {{"ops_per_s", "scenario_corpus"}},
	"scenario.evaluate_ms":  {{"ops_per_s", "scenario_corpus"}},

	"regress.suite_ms.overlap": {{"ops_per_s", "nas_lu"}},
	"regress.suite_ms.nas":     {{"ops_per_s", "nas_lu"}},
	"regress.suite_ms.coll":    {{"ops_per_s", "coll_sweep"}},

	// Measured on whichever workload the traced run is given.
	"bench.trace_overhead_pct": {{"ops_per_s", "nas_lu"}, {"ops_per_s", "coll_sweep"}, {"ops_per_s", "scenario_corpus"}, {"ops_per_s", "trace_analysis"}},
	"cluster.heap_peak_mb":     {{"bytes_per_op", "nas_lu"}, {"bytes_per_op", "coll_sweep"}, {"bytes_per_op", "scenario_corpus"}, {"bytes_per_op", "trace_analysis"}},
	"cluster.op_ms_tail":       {{"op_ms_p50", "nas_lu"}, {"op_ms_p50", "coll_sweep"}, {"op_ms_p50", "scenario_corpus"}, {"op_ms_p50", "trace_analysis"}},
}

// movesOf looks a per-layer metric up, with or without a ladder suffix.
func movesOf(name string) []move {
	if m, ok := moves[name]; ok {
		return m
	}
	for _, suffix := range []string{".lu", ".coll"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			return moves[base]
		}
	}
	return nil
}

// movesText renders a metric's moves for the printed table.
func movesText(name string) string {
	var parts []string
	for _, m := range movesOf(name) {
		parts = append(parts, m.metric+"@"+m.workload)
	}
	if len(parts) == 0 {
		return ""
	}
	return "-> " + strings.Join(parts, " ")
}
