package main

import (
	"sort"
	"time"
)

// samples collects raw harness-side timings of one phase, in nanoseconds.
type samples []int64

func (s *samples) add(x time.Duration) { *s = append(*s, int64(x)) }

// quantile returns the q'th quantile (0..1) in nanoseconds.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

// mean returns the average sample in nanoseconds.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s {
		sum += float64(x)
	}
	return sum / float64(len(s))
}

// windowedMean is the median over latWindows equal windows, in arrival
// order, of each window's mean.
func (s samples) windowedMean() float64 {
	n := len(s) / latWindows
	if n == 0 {
		return s.mean()
	}
	per := make([]float64, latWindows)
	for w := range per {
		per[w] = s[w*n : (w+1)*n].mean()
	}
	return median(per)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// windowedQuantile splits vals, in arrival order, into latWindows equal
// windows and returns the median over windows of each window's q'th
// quantile, in microseconds. One scheduler or collector hiccup then moves
// one window, not the metric.
func windowedQuantile(vals []time.Duration, q float64) float64 {
	n := len(vals) / latWindows
	if n == 0 {
		return 0
	}
	per := make([]float64, 0, latWindows)
	for w := 0; w < latWindows; w++ {
		win := append([]time.Duration(nil), vals[w*n:(w+1)*n]...)
		sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
		per = append(per, float64(win[int(q*float64(n-1))])/1e3)
	}
	return median(per)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
