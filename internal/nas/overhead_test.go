package nas_test

import (
	"path/filepath"
	"strconv"
	"testing"

	"ovlp/internal/scenario"
)

// TestInstrumentationOverheadUnderOnePercent: paper Sec. 4.5 /
// Fig. 20, instrumentation overhead below 0.9% of execution time for
// all test cases, on the committed spec.
func TestInstrumentationOverheadUnderOnePercent(t *testing.T) {
	sp, err := scenario.LoadSpec(filepath.Join("..", "..", "specs", "fig20.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := sp.Run(scenario.SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		name := m.Point.Workload.Bench
		pct, err := strconv.ParseFloat(sp.Value(ms, i, "overhead%").(string), 64)
		if err != nil {
			t.Fatal(err)
		}
		if pct > 0.9 {
			t.Errorf("%s: instrumentation overhead %.3f%%, paper reports <0.9%%", name, pct)
		}
		if m.Res.Duration < m.Plain {
			t.Errorf("%s: instrumented run %v faster than plain %v", name, m.Res.Duration, m.Plain)
		}
	}
}
