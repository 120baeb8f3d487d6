package timeres

import (
	"sort"
	"time"
)

// span is one half-open interval [s, e) on the virtual timeline. The
// analyzer's five-bucket classification is interval arithmetic over
// merged span sets: intersection splits spans at bucket and window
// boundaries, which is what makes split-span accounting conserve time
// exactly.
type span struct{ s, e time.Duration }

// mergeSpans sorts a copy of v by start and coalesces overlapping or
// touching intervals.
func mergeSpans(v []span) []span {
	if len(v) == 0 {
		return nil
	}
	c := make([]span, len(v))
	copy(c, v)
	sort.Slice(c, func(i, j int) bool {
		if c[i].s != c[j].s {
			return c[i].s < c[j].s
		}
		return c[i].e < c[j].e
	})
	out := c[:1]
	for _, sp := range c[1:] {
		last := &out[len(out)-1]
		if sp.s <= last.e {
			if sp.e > last.e {
				last.e = sp.e
			}
			continue
		}
		out = append(out, sp)
	}
	return out
}

// intersectSpans returns a ∩ b; both inputs must be merged-sorted.
func intersectSpans(a, b []span) []span {
	var out []span
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].s, a[i].e
		if b[j].s > lo {
			lo = b[j].s
		}
		if b[j].e < hi {
			hi = b[j].e
		}
		if hi > lo {
			out = append(out, span{lo, hi})
		}
		if a[i].e < b[j].e {
			i++
		} else {
			j++
		}
	}
	return out
}

// clipSum returns the total length of v ∩ [lo, hi); v must be
// merged-sorted.
func clipSum(v []span, lo, hi time.Duration) time.Duration {
	i := sort.Search(len(v), func(i int) bool { return v[i].e > lo })
	var total time.Duration
	for ; i < len(v) && v[i].s < hi; i++ {
		a, b := v[i].s, v[i].e
		if lo > a {
			a = lo
		}
		if hi < b {
			b = hi
		}
		if b > a {
			total += b - a
		}
	}
	return total
}
