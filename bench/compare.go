package main

import (
	"fmt"
	"io"
	"sort"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance check of this benchmark uses.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and spreads, how much worse b is than a, the bound, and a
// verdict: within, outside, or unresolved when either set's own spread is
// wider than the bound. It returns 1 if any verdict is outside or any run
// of either set was incorrect.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "chcperf: -compare: %v\n", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "chcperf: -compare: %v\n", err)
		return 2
	}
	return compareRuns(a.Runs, b.Runs, stdout)
}

func compareRuns(a, b []*result, out io.Writer) int {
	code := 0
	for _, set := range [][]*result{a, b} {
		for _, r := range set {
			if !r.Correct {
				fmt.Fprintf(out, "incorrect run: %s seed %d failed=%d %v\n", r.Workload, r.Seed, r.Failed, r.Problems)
				code = 1
			}
		}
	}
	vals := func(set []*result, workload, metric string) []float64 {
		var xs []float64
		for _, r := range set {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(out, "%-9s %-15s %4s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "n", "median_a", "iqr_a", "median_b", "iqr_b", "worse", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := vals(a, w.name, d.name), vals(b, w.name, d.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.better == higher {
				worse = -worse
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "within"
			switch {
			case max(sa, sb) > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "outside"
				code = 1
			}
			fmt.Fprintf(out, "%-9s %-15s %4d %14.4f %6.1f%% %14.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.name, d.name, min(len(xa), len(xb)), ma, 100*sa, mb, 100*sb, 100*worse, 100*d.bound, verdict)
		}
	}
	return code
}
