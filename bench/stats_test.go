package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// The tail a sample supports is the highest percentile with at least
// ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n       int
		wantPct float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99},
	} {
		pct, v := tailPercentile(seq(c.n))
		if math.Abs(pct-c.wantPct) > 1e-9 {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, pct, c.wantPct)
		}
		if want := percentile(seq(c.n), c.wantPct/100); v != want {
			t.Errorf("n=%d: tail value %v, want %v", c.n, v, want)
		}
		if beyond := float64(c.n) * (1 - pct/100); c.n >= 20 && beyond < 10-1e-9 {
			t.Errorf("n=%d: only %.1f samples beyond p%v", c.n, beyond, pct)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// rule the acceptance spread is computed by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{2, 4, 4, 5, 9}, 3, 7},
		{[]float64{3.5, 1.25, 8, 2, 2, 7.75, 6}, 2, 7.75},
	} {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	if got := spreadShare([]float64{9, 10, 11, 10, 10, 9, 11, 10, 10, 10}); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("spreadShare = %v, want 0.05", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	v := []float64{3, 1, 2}
	if m := median(v); m != 2 {
		t.Errorf("median = %v", m)
	}
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Errorf("median reordered its input: %v", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}
