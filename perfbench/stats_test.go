package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 50, 50, true},
		{100, 90, 90, true}, // exactly 10 samples beyond
		{100, 91, 0, false}, // 9 beyond
		{99, 90, 0, false},  // rank 90 of 99 leaves 9 beyond
		{1000, 99, 990, true},
		{20, 50, 10, true},
		{19, 50, 0, false},
		{100, 0, 0, false},
		{100, 100, 0, false},
	} {
		xs := seq(c.n)
		got, err := percentile(xs, c.p)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, ok=%v", c.n, c.p, got, err, c.want, c.ok)
		}
		if xs[0] != float64(c.n) {
			t.Fatalf("percentile reordered its input")
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{9, -1}, {10, -1}, {11, 9}, {20, 50}, {99, 89}, {100, 90}, {200, 95}, {1000, 99}, {100000, 99},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		// The returned percentile is accepted, the next one refused.
		if got > 0 {
			if _, err := percentile(seq(c.n), float64(got)); err != nil {
				t.Errorf("percentile(1..%d, p%d) refused: %v", c.n, got, err)
			}
			if got < 99 {
				if _, err := percentile(seq(c.n), float64(got+1)); err == nil {
					t.Errorf("percentile(1..%d, p%d) accepted", c.n, got+1)
				}
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("empty median is not NaN")
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4}, 2},
		{[]float64{2, 8}, 4},
		{[]float64{5}, 5},
		{[]float64{1, 10, 100}, 10},
	} {
		got, err := geomean(c.xs)
		if err != nil || math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("geomean(%v) = %v, %v; want %v", c.xs, got, err, c.want)
		}
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) accepted", bad)
		}
	}
}
