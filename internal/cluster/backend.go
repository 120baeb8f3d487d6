package cluster

import (
	"fmt"

	"ovlp/internal/calib"
	"ovlp/internal/clock"
	"ovlp/internal/fabric"
	"ovlp/internal/vtime"
)

// Backend selects the clock a run's kernel keeps: virtual time it
// jumps through, or a clock.Clock it waits on.
type Backend int

const (
	// BackendVirtual is the deterministic discrete-event simulation:
	// bit-for-bit reproducible.
	BackendVirtual Backend = iota
	// BackendReal is the same kernel, fabric and libraries with every
	// modelled cost — compute, DMA start-up, wire, link latency,
	// retransmission timeouts, crash instants — waited for on a
	// clock.Clock. On the machine's clock a run takes its modelled time
	// plus whatever the host code in between really costs, so it is
	// nondeterministic by nature.
	BackendReal
)

func (b Backend) String() string {
	switch b {
	case BackendVirtual:
		return "virtual"
	case BackendReal:
		return "real"
	}
	return "invalid"
}

// ParseBackend parses a Backend's String form; "" selects the default
// BackendVirtual, so flag defaults and zero configs agree.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", BackendVirtual.String():
		return BackendVirtual, nil
	case BackendReal.String():
		return BackendReal, nil
	}
	return 0, fmt.Errorf("unknown backend %q (want %s or %s)", s, BackendVirtual, BackendReal)
}

// newSim builds the kernel for a backend. A nil clk on BackendReal
// selects the machine's monotonic clock.
func newSim(b Backend, clk clock.Clock) *vtime.Sim {
	if b == BackendReal {
		return vtime.NewRealSim(clk)
	}
	return vtime.NewSim()
}

// runDomain names the clock domain a (backend, clock) pair runs in,
// in the same vocabulary calibration tables are stamped with.
func runDomain(b Backend, clk clock.Clock) string {
	if b != BackendReal {
		return string(clock.Virtual)
	}
	if clk == nil {
		return string(clock.RealDomain)
	}
	return string(clk.Domain())
}

// checkTableDomain rejects a calibration table measured on a
// different kind of clock than the run executes on: virtual-time
// transfer costs say nothing about the machine's real wire, and vice
// versa, so applying the wrong table silently corrupts every bound.
func checkTableDomain(t *calib.Table, b Backend, clk clock.Clock) error {
	if t == nil {
		return nil
	}
	want := runDomain(b, clk)
	if got := t.Domain(); got != want {
		return fmt.Errorf("cluster: calibration table is %s-clock but the run backend is %s; recalibrate with -backend %s", got, want, want)
	}
	return nil
}

// CalibrateBackend measures the transfer-time table on the given
// backend: the virtual fabric for BackendVirtual (identical to
// Calibrate), or the same ping-pong timed on clk for BackendReal. The
// returned table is stamped with the clock domain it was measured in,
// so loaders can reject cross-domain use.
func CalibrateBackend(b Backend, clk clock.Clock, cost fabric.CostModel, sizes []int, reps int) *calib.Table {
	table := calibrate(newSim(b, clk), cost, sizes, reps)
	if d := runDomain(b, clk); d != string(clock.Virtual) {
		table.SetDomain(d)
	}
	return table
}
