package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// appendResults adds rs to the JSON array in path, creating the file
// if needed, so repeated runs with one -out accumulate into a set that
// -compare can take medians and spreads over.
func appendResults(path string, rs []*result) error {
	var all []*result
	if _, err := os.Stat(path); err == nil {
		if err := readJSON(path, &all); err != nil {
			return err
		}
	}
	return writeJSON(path, append(all, rs...))
}

// quartiles returns the first quartile, median and third quartile of v
// by the method of Python's statistics.quantiles(v, n=4) — the one the
// benchmark driver uses. Fewer than two values have no spread: all
// three are the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Exclusive method: position k(n+1)/4, clamped, interpolated.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(k*(n+1)-j*4) / 4
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both result sets A (the reference) and B (the candidate), judged
// by the metric's own bound from BENCHMARK.json:
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  it is not, but A's own run-to-run spread (distance
//	            between its quartiles over its median) is wider than
//	            the bound, and B does not beat A on every run
//	ok          otherwise
//
// Exact counts of runs that share workload and seed must be equal; a
// difference is reported as worse. It returns whether any row is worse.
func compareFiles(w io.Writer, man *manifest, pathA, pathB string) (bool, error) {
	var a, b []*result
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "A spread", "verdict")
	for _, wl := range man.Workloads {
		for _, d := range man.EndToEnd {
			va, vb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1, ma, q3 := quartiles(va)
			_, mb, _ := quartiles(vb)
			sign := 1.0 // lower is better: worse means larger
			if d.Better == "higher" {
				sign = -1
			}
			worseBy := sign * (mb - ma) / ma
			spread := (q3 - q1) / ma
			verdict := "ok"
			switch {
			case worseBy > *d.Bound:
				verdict = "worse"
				anyWorse = true
			case spread > *d.Bound && !allBetter(va, vb, sign):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %8.2f%% %6.1f%% %7.2f%%  %s (n=%d, %d)\n",
				wl.Name, d.Name, ma, mb, 100*worseBy, 100**d.Bound, 100*spread, verdict, len(va), len(vb))
		}
	}
	for _, ra := range a {
		for _, rb := range b {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Traced != rb.Traced {
				continue
			}
			for name, ca := range ra.Exact {
				if cb, ok := rb.Exact[name]; ok && ca != cb {
					anyWorse = true
					fmt.Fprintf(w, "%-16s %-18s %14d %14d  exact count differs at seed %d: worse\n", ra.Workload, name, ca, cb, ra.Seed)
				}
			}
		}
	}
	return anyWorse, nil
}

// values collects one metric over every untraced run of a workload.
func values(rs []*result, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, v.Value)
		}
	}
	return out
}

// allBetter reports whether every run of b reads better than every run
// of a (sign +1: lower is better).
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}
