package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must leave
// beyond it: a percentile with fewer is noise, so the tail metric steps down
// to a lower percentile instead.
const minBeyond = 10

// tailLadder lists the percentiles the tail metric may report, highest
// first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// quantile returns the p-quantile of sorted xs by the nearest-rank rule: the
// smallest value with at least ⌈p·n⌉ samples at or below it. It is 0 for an
// empty sample.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// beyond returns how many of n samples lie strictly above the nearest-rank
// p-quantile's position.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// supported reports whether a sample of n values supports the p-quantile:
// at least minBeyond samples lie beyond it.
func supported(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// tailPercentile returns the highest percentile on tailLadder that n samples
// support, or 0 when even the median is unsupported.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if supported(n, p) {
			return p
		}
	}
	return 0
}

// latencySummary is a latency sample reduced to its median and tail.
type latencySummary struct {
	N      int
	P50    float64
	TailP  float64 // the percentile Tail reports (0 when unsupported)
	Tail   float64
	Max    float64
	Sorted []float64
}

// summarize sorts a copy of xs and reduces it.
func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), Sorted: s, P50: quantile(s, 0.5)}
	if len(s) > 0 {
		out.Max = s[len(s)-1]
	}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailP, out.Tail = p, quantile(s, p)
	}
	return out
}

// median returns the median of xs (the mean of the middle pair for an even
// count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
