package cluster

import (
	"fmt"
	"strings"
)

// RankError is one rank's structured failure: the rank that died and
// the error it died with (typically a *mpi.CommError or *armci.CommError
// carrying peer, call site and attempt count). It unwraps to the
// underlying error, so errors.Is/As see through it.
type RankError struct {
	Rank int
	Err  error
}

func (e RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

func (e RankError) Unwrap() error { return e.Err }

// RunErrors aggregates every failed rank's error from one run, plus
// the simulation-level error (deadlock, deadline expiry) if the run
// also wedged. It replaces the old first-error-wins behaviour: when
// several ranks fail — e.g. two ranks timing out simultaneously under
// a partition — every failure is reported, each tagged with its rank.
//
// errors.Is and errors.As traverse all contained errors, so existing
// checks like errors.Is(err, mpi.ErrTimeout) keep working.
type RunErrors struct {
	// Ranks lists each failed rank's error in rank order.
	Ranks []RankError
	// Sim is the simulation-level error (*vtime.DeadlockError or a
	// non-rank panic), nil when the simulation itself ran to
	// completion.
	Sim error
}

func (e *RunErrors) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d rank(s) failed", len(e.Ranks))
	for _, re := range e.Ranks {
		fmt.Fprintf(&b, "\n  %v", re)
	}
	if e.Sim != nil {
		fmt.Fprintf(&b, "\n  simulation: %v", e.Sim)
	}
	return b.String()
}

// Unwrap exposes every contained error to errors.Is/As.
func (e *RunErrors) Unwrap() []error {
	out := make([]error, 0, len(e.Ranks)+1)
	for _, re := range e.Ranks {
		out = append(out, re)
	}
	if e.Sim != nil {
		out = append(out, e.Sim)
	}
	return out
}

// combineErrors folds the per-rank recovered errors and the simulation
// error into the run's returned error: nil when nothing failed, the
// bare simulation error when no rank failed (the pre-aggregation
// shape), and a *RunErrors whenever at least one rank failed.
func combineErrors(rankErrs []error, simErr error) error {
	var failed []RankError
	for rank, err := range rankErrs {
		if err != nil {
			failed = append(failed, RankError{Rank: rank, Err: err})
		}
	}
	if len(failed) == 0 {
		return simErr
	}
	return &RunErrors{Ranks: failed, Sim: simErr}
}
