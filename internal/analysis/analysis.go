// Package analysis provides the statistics the experiment harnesses
// use: descriptive summaries, percentiles, Student-t confidence
// intervals, Welch's two-sample t-test, simple linear regression, the
// paper's gain/loss ratios and the min/max envelopes of Figures 6-7.
//
// The paper reports single-run numbers; a faithful reproduction on a
// simulator can do better by replicating each experiment across seeds
// and reporting mean ± confidence interval, so that the headline
// claims ("25% energy gain", "6% makespan loss") are checked as
// populations rather than point estimates. This package contains the
// numerics for that: the t distribution is computed from the
// regularized incomplete beta function (dist.go), not from hard-coded
// quantile tables, so any confidence level and sample size work.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Summary is a descriptive summary of a sample.
type Summary struct {
	N      int     // sample size
	Mean   float64 // arithmetic mean
	Var    float64 // unbiased sample variance (n-1 denominator)
	Std    float64 // sqrt(Var)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes the descriptive summary of xs. It returns an
// error on an empty sample or non-finite values (a NaN mean silently
// poisons every downstream ratio, so reject it at the door).
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errors.New("analysis: empty sample")
	}
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return Summary{}, fmt.Errorf("analysis: sample[%d] = %v is not finite", i, x)
		}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Var)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Percentile(sorted, 0.5)
	return s, nil
}

// StdErr returns the standard error of the mean, 0 for N < 2.
func (s Summary) StdErr() float64 {
	if s.N < 2 {
		return 0
	}
	return s.Std / math.Sqrt(float64(s.N))
}

// CI returns the Student-t confidence interval of the mean at the
// given confidence level (e.g. 0.95). For N < 2 the interval collapses
// to the mean itself, as no dispersion estimate exists.
func (s Summary) CI(level float64) (lo, hi float64) {
	if s.N < 2 || level <= 0 || level >= 1 {
		return s.Mean, s.Mean
	}
	t := TQuantile(0.5+level/2, float64(s.N-1))
	h := t * s.StdErr()
	return s.Mean - h, s.Mean + h
}

// Percentile returns the p-quantile (p in [0,1]) of an ascending-sorted
// sample with linear interpolation between closest ranks. It panics on
// an empty sample (programming error, not data error).
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("analysis: Percentile of empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// WelchResult is the outcome of a Welch two-sample t-test.
type WelchResult struct {
	T  float64 // test statistic
	DF float64 // Welch-Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchT compares the means of two summarized samples without assuming
// equal variances. It errors when either sample has fewer than two
// observations (no variance estimate).
func WelchT(a, b Summary) (WelchResult, error) {
	if a.N < 2 || b.N < 2 {
		return WelchResult{}, fmt.Errorf("analysis: Welch t-test needs n>=2 on both sides (got %d, %d)", a.N, b.N)
	}
	va := a.Var / float64(a.N)
	vb := b.Var / float64(b.N)
	if va+vb == 0 {
		// Identical constant samples: no evidence of difference.
		if a.Mean == b.Mean {
			return WelchResult{T: 0, DF: float64(a.N + b.N - 2), P: 1}, nil
		}
		return WelchResult{T: math.Inf(sign(a.Mean - b.Mean)), DF: float64(a.N + b.N - 2), P: 0}, nil
	}
	t := (a.Mean - b.Mean) / math.Sqrt(va+vb)
	df := (va + vb) * (va + vb) /
		(va*va/float64(a.N-1) + vb*vb/float64(b.N-1))
	p := 2 * (1 - TCDF(math.Abs(t), df))
	return WelchResult{T: t, DF: df, P: p}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// Fit is a least-squares line y = Slope*x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
}

// LinearFit fits a least-squares line through (xs[i], ys[i]). It
// errors on mismatched lengths, fewer than two points, or degenerate
// (constant) x.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("analysis: LinearFit length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, errors.New("analysis: LinearFit needs at least two points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, errors.New("analysis: LinearFit with constant x")
	}
	f := Fit{Slope: sxy / sxx}
	f.Intercept = my - f.Slope*mx
	if syy == 0 {
		f.R2 = 1 // constant y fit exactly by slope 0
	} else {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f, nil
}

// Gain returns the relative reduction (base-new)/base, the form the
// paper uses for "POWER presents a gain of 25% when compared to
// RANDOM": Gain(E_random, E_power). A zero base yields 0.
func Gain(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - new) / base
}

// Loss returns the relative degradation (new-base)/base. The paper's
// "loss of performance of up to 6%" is Loss(makespan_perf,
// makespan_power). A zero base yields 0.
func Loss(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (new - base) / base
}

// Envelope is a min/max band, used for the RANDOM shaded areas of
// Figures 6 and 7.
type Envelope struct {
	MinX, MaxX float64
	MinY, MaxY float64
}

// EnvelopeOf computes the band over (x, y) pairs.
func EnvelopeOf(xs, ys []float64) (Envelope, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return Envelope{}, errors.New("analysis: envelope needs equal-length non-empty series")
	}
	e := Envelope{MinX: math.Inf(1), MaxX: math.Inf(-1), MinY: math.Inf(1), MaxY: math.Inf(-1)}
	for i := range xs {
		e.MinX = math.Min(e.MinX, xs[i])
		e.MaxX = math.Max(e.MaxX, xs[i])
		e.MinY = math.Min(e.MinY, ys[i])
		e.MaxY = math.Max(e.MaxY, ys[i])
	}
	return e, nil
}
