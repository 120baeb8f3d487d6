package clock

import (
	"testing"
	"time"
)

func TestParseDomain(t *testing.T) {
	cases := []struct {
		in   string
		want Domain
		ok   bool
	}{
		{"", Virtual, true},
		{"virtual", Virtual, true},
		{"real", RealDomain, true},
		{"wall", "", false},
	}
	for _, c := range cases {
		got, ok := ParseDomain(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseDomain(%q) = %q, %v; want %q, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestRealClockBasics(t *testing.T) {
	clk := Real()
	if clk.Domain() != RealDomain {
		t.Fatalf("Domain = %q, want real", clk.Domain())
	}
	start := clk.Now()
	clk.Sleep(2 * time.Millisecond)
	if el := clk.Since(start); el < 2*time.Millisecond {
		t.Fatalf("Sleep(2ms) returned after %v", el)
	}
	clk.Sleep(0)
	clk.Sleep(-time.Second) // must not block
}

// Short real sleeps should be far more accurate than the scheduler's
// wake-up slop thanks to the spin tail. Keep the bound loose enough
// for loaded CI machines.
func TestRealSleepPrecision(t *testing.T) {
	clk := Real()
	const d = 200 * time.Microsecond
	worst := time.Duration(0)
	for i := 0; i < 20; i++ {
		start := clk.Now()
		clk.Sleep(d)
		over := clk.Since(start) - d
		if over > worst {
			worst = over
		}
	}
	if worst > 20*time.Millisecond {
		t.Fatalf("worst oversleep %v for %v sleeps — spin tail not engaged?", worst, d)
	}
}

// The spin tail is whatever the host's timer slack was measured to be,
// inside fixed bounds, and the same for every Real().
func TestSpinTailMeasuredOnceWithinBounds(t *testing.T) {
	tail := Real().(realClock).spin
	if tail < minSpin || tail > maxSpin {
		t.Fatalf("spin tail %v outside [%v, %v]", tail, minSpin, maxSpin)
	}
	if again := Real().(realClock).spin; again != tail {
		t.Fatalf("second Real() spins %v, first %v", again, tail)
	}
	t.Logf("spin tail on this host: %v", tail)
}

// A stepped clock moves when slept on, by what was asked, and at no
// other time.
func TestSteppedMovesOnlyWhenSleptOn(t *testing.T) {
	var clk Stepped
	if clk.Domain() != Virtual {
		t.Fatalf("Domain = %q, want virtual", clk.Domain())
	}
	start := clk.Now()
	if d := clk.Since(start); d != 0 {
		t.Fatalf("clock moved %v between two reads", d)
	}
	clk.Sleep(3 * time.Microsecond)
	clk.Sleep(0)
	clk.Sleep(-time.Second)
	clk.Sleep(7 * time.Nanosecond)
	if d := clk.Since(start); d != 3*time.Microsecond+7*time.Nanosecond {
		t.Fatalf("clock moved %v, want exactly 3.007µs", d)
	}
}
