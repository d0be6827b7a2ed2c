package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile resting on fewer is one or two outliers, not a distribution.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100).
// It fails when fewer than minTail samples lie beyond the rank, so a p90 of
// 50 samples is refused instead of reported.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	k := rank(n, p)
	if n-k < minTail {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, n-k, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], nil
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile returns the highest whole percentile of n samples that
// still has minTail samples beyond it, or -1 when no percentile does.
func tailPercentile(n int) int {
	for p := 99; p >= 1; p-- {
		if n-rank(n, float64(p)) >= minTail {
			return p
		}
	}
	return -1
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); it needs no tail, so it works for a handful of passes.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean returns the geometric mean of xs, all of which must be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geomean of non-positive value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
