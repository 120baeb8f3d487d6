package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %v", m)
	}
	if m := Min(xs); m != 1 {
		t.Errorf("Min = %v", m)
	}
	if m := Max(xs); m != 4 {
		t.Errorf("Max = %v", m)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty inputs should yield zero")
	}
}

// Property: Min <= Mean <= Max, and Min and Max are elements.
func TestQuickOrderInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, rng.Intn(50)+1)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		lo, hi, mean := Min(xs), Max(xs), Mean(xs)
		if mean < lo || mean > hi {
			return false
		}
		var seenLo, seenHi bool
		for _, x := range xs {
			seenLo = seenLo || x == lo
			seenHi = seenHi || x == hi
		}
		return seenLo && seenHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
