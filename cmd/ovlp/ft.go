package main

// Fault-tolerance flags: the -crash plan and the recovery-policy
// knobs, shared by every driver that can run a Checkpointable
// workload under cluster.RunFT. Mirrors registerFaults — flags
// assemble into a fabric.CrashPlan + cluster.FTOptions, validated
// before any rank is spawned.

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/diagnose"
	"ovlp/internal/fabric"
	"ovlp/internal/vtime"
)

// ftFlags is the shared fault-tolerance flag state: which nodes crash and
// when, and what the survivors do about it.
type ftFlags struct {
	crash     string
	mode      string
	every     int
	heartbeat time.Duration
}

// registerFT installs the crash-stop fault-tolerance flags on fs:
// -crash declares the kill plan, -recover / -checkpoint-every /
// -heartbeat the recovery policy.
func registerFT(fs *flag.FlagSet) *ftFlags {
	f := &ftFlags{}
	fs.StringVar(&f.crash, "crash", "",
		`crash-stop rank failures, comma-separated "node@time", e.g. "2@800us"`)
	fs.StringVar(&f.mode, "recover", "",
		"recovery mode after an agreed failure: shrink-continue (default) or checkpoint-restart")
	fs.IntVar(&f.every, "checkpoint-every", 1,
		"steps between committed checkpoints in checkpoint-restart mode")
	fs.DurationVar(&f.heartbeat, "heartbeat", 0,
		"failure-detector ping period (0 = the library default)")
	return f
}

// Active reports whether a crash plan was declared.
func (f *ftFlags) Active() bool { return f != nil && f.crash != "" }

// Plan compiles the -crash list into a fabric plan, nil when the flag
// was left empty.
func (f *ftFlags) Plan() (*fabric.CrashPlan, error) {
	if !f.Active() {
		return nil, nil
	}
	crashes, err := parseList(f.crash, true, parseCrash)
	if err != nil {
		return nil, err
	}
	if len(crashes) == 0 {
		return nil, fmt.Errorf("-crash %q declares no crash", f.crash)
	}
	p := &fabric.CrashPlan{Crashes: crashes}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseCrash(s string) (fabric.Crash, error) {
	bad := func() (fabric.Crash, error) {
		return fabric.Crash{}, fmt.Errorf(
			`bad crash %q (want "node@time", e.g. "2@800us")`, s)
	}
	node, atStr, ok := cutNode(s)
	at, err := time.ParseDuration(atStr)
	if !ok || err != nil || at <= 0 {
		return bad()
	}
	return fabric.Crash{Node: node, At: vtime.Time(at)}, nil
}

// Options assembles the recovery policy from the mode/interval/ping
// flags. The mode string is validated here, so drivers can reject a
// typo with exit 2 before any simulation starts.
func (f *ftFlags) Options() (cluster.FTOptions, error) {
	mode, err := cluster.ParseRecoveryMode(f.mode)
	if err != nil {
		return cluster.FTOptions{}, fmt.Errorf("-recover: %w", err)
	}
	if f.every < 0 {
		return cluster.FTOptions{}, fmt.Errorf("-checkpoint-every must be non-negative")
	}
	if f.heartbeat < 0 {
		return cluster.FTOptions{}, fmt.Errorf("-heartbeat must be non-negative")
	}
	return cluster.FTOptions{
		Mode:            mode,
		CheckpointEvery: f.every,
		Heartbeat:       f.heartbeat,
	}, nil
}

// SetFT records a fault-tolerant run's declared crash plan and
// recovery outcome, so -diagnose cites the declared crashes (the
// rank-failure finding) instead of only what the blame profile shows.
// Call it after the traced run, alongside SetRun; any argument may be
// nil.
func (o *obsFlags) SetFT(plan *fabric.CrashPlan, mode cluster.RecoveryMode, ft *cluster.FTResult) {
	if o == nil {
		return
	}
	if plan != nil {
		o.crashes = nil
		for _, cr := range plan.Crashes {
			o.crashes = append(o.crashes, diagnose.Crash{Rank: int(cr.Node), At: time.Duration(cr.At)})
		}
	}
	if ft != nil {
		o.recovery = &diagnose.Recovery{
			Mode:          mode.String(),
			Epochs:        ft.Epochs,
			Failed:        ft.Failed,
			Survivors:     len(ft.Survivors),
			Checkpoints:   ft.Checkpoints,
			ReplayedSteps: ft.ReplayedSteps,
			Completed:     ft.Completed,
		}
	}
}

// Describe renders the crash plan and recovery policy for a driver's
// header line; "" when no crash was declared, so failure-free output
// stays untouched.
func (f *ftFlags) Describe() string {
	if !f.Active() {
		return ""
	}
	p, err := f.Plan()
	if err != nil {
		return ""
	}
	var kills []string
	for _, cr := range p.Crashes {
		kills = append(kills, fmt.Sprintf("node %d @ %v", cr.Node, time.Duration(cr.At)))
	}
	mode, merr := cluster.ParseRecoveryMode(f.mode)
	desc := "crashes: " + strings.Join(kills, ", ")
	if merr == nil {
		desc += fmt.Sprintf(" (%s recovery)", mode)
	}
	return desc
}
