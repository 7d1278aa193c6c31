package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of ascending-sorted
// values by the nearest-rank method, the rule obs.AnalyzeSpans uses.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// the epsilon keeps 0.999*10000 = 9990.000000000002 at rank 9990
	idx := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// tailLadder is the percentile ladder tailPercentile climbs.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailPercentile returns the highest percentile of the ladder that
// still has at least ten samples beyond it, and its value — the tail a
// sample of this size can support (choosing-metrics §1). With fewer
// than 20 samples nothing qualifies and it falls back to the median.
func tailPercentile(sorted []float64) (pct, value float64) {
	pct = tailLadder[0]
	for _, q := range tailLadder {
		if float64(len(sorted))*(1-q) >= 10-1e-9 {
			pct = q
		}
	}
	return pct * 100, percentile(sorted, pct)
}

// median returns the middle of vals (mean of the two middles for an
// even count) without mutating the caller's slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (exclusive method) —
// the rule the acceptance spread is defined by. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// position i*(n+1)/4 on a 1-based scale; j is clamped to the
		// data before delta is taken, exactly as CPython does
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
