package analysis

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "mean", s.Mean, 5, 1e-12)
	approx(t, "var", s.Var, 32.0/7, 1e-12) // sample variance
	approx(t, "min", s.Min, 2, 0)
	approx(t, "max", s.Max, 9, 0)
	approx(t, "median", s.Median, 4.5, 1e-12)
	if s.N != 8 {
		t.Errorf("N = %d, want 8", s.N)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if s.Var != 0 || s.Std != 0 || s.StdErr() != 0 {
		t.Errorf("single sample must have zero dispersion, got %+v", s)
	}
	lo, hi := s.CI(0.95)
	if lo != 42 || hi != 42 {
		t.Errorf("CI of single sample = [%v, %v], want collapsed to mean", lo, hi)
	}
}

func TestSummarizeRejectsBadInput(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty sample must error")
	}
	if _, err := Summarize([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN must error")
	}
	if _, err := Summarize([]float64{1, math.Inf(1)}); err == nil {
		t.Error("Inf must error")
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Summarize(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileKnown(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	approx(t, "p0", Percentile(sorted, 0), 1, 0)
	approx(t, "p1", Percentile(sorted, 1), 4, 0)
	approx(t, "p50", Percentile(sorted, 0.5), 2.5, 1e-12)
	approx(t, "p25", Percentile(sorted, 0.25), 1.75, 1e-12)
}

func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, p0, p1 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		pa := math.Abs(math.Mod(p0, 1))
		pb := math.Abs(math.Mod(p1, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, qb := Percentile(xs, pa), Percentile(xs, pb)
		// Monotone in p and bounded by the sample range.
		return qa <= qb && qa >= xs[0] && qb <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCIContainsMeanAndShrinksWithConfidence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	lo95, hi95 := s.CI(0.95)
	lo50, hi50 := s.CI(0.50)
	if !(lo95 <= s.Mean && s.Mean <= hi95) {
		t.Errorf("95%% CI [%v,%v] does not contain mean %v", lo95, hi95, s.Mean)
	}
	if hi50-lo50 >= hi95-lo95 {
		t.Errorf("50%% CI (width %v) not narrower than 95%% CI (width %v)", hi50-lo50, hi95-lo95)
	}
}

func TestCICoverage(t *testing.T) {
	// Frequentist check: across many synthetic samples from N(0,1),
	// the 95% CI must contain 0 roughly 95% of the time.
	rng := rand.New(rand.NewSource(42))
	const trials, n = 2000, 12
	hits := 0
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		s, err := Summarize(xs)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := s.CI(0.95)
		if lo <= 0 && 0 <= hi {
			hits++
		}
	}
	cover := float64(hits) / trials
	if cover < 0.93 || cover > 0.97 {
		t.Errorf("empirical 95%% CI coverage = %.3f, want ≈0.95", cover)
	}
}

func TestWelchTIdenticalSamples(t *testing.T) {
	a, _ := Summarize([]float64{5, 5, 5})
	r, err := WelchT(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.T != 0 || r.P != 1 {
		t.Errorf("identical constant samples: T=%v P=%v, want 0, 1", r.T, r.P)
	}
}

func TestWelchTSeparatedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = 5 + rng.NormFloat64()
	}
	sa, _ := Summarize(a)
	sb, _ := Summarize(b)
	r, err := WelchT(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if r.P > 1e-6 {
		t.Errorf("clearly separated samples: p = %v, want ≈0", r.P)
	}
	if r.T >= 0 {
		t.Errorf("mean(a) < mean(b) must give negative T, got %v", r.T)
	}
}

func TestWelchTNeedsTwoObservations(t *testing.T) {
	one, _ := Summarize([]float64{1})
	two, _ := Summarize([]float64{1, 2})
	if _, err := WelchT(one, two); err == nil {
		t.Error("n=1 sample must be rejected")
	}
}

func TestLinearFitExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "slope", f.Slope, 3, 1e-12)
	approx(t, "intercept", f.Intercept, -7, 1e-12)
	approx(t, "r2", f.R2, 1, 1e-12)
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("one point must error")
	}
	if _, err := LinearFit([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("constant x must error")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestGain(t *testing.T) {
	approx(t, "gain", Gain(100, 75), 0.25, 1e-12)
	approx(t, "negative gain", Gain(100, 110), -0.10, 1e-12)
}

func TestGainLoss(t *testing.T) {
	// Table II: POWER 4,528,547 J vs RANDOM 6,041,436 J → ≈25% gain.
	approx(t, "paper energy gain", Gain(6041436, 4528547), 0.2504, 0.001)
	// POWER 2321 s vs PERFORMANCE 2228 s → ≈4.2% loss ("up to 6%").
	if l := Loss(2228, 2321); l <= 0 || l > 0.06 {
		t.Errorf("paper makespan loss = %v, want (0,0.06]", l)
	}
	if Gain(0, 5) != 0 || Loss(0, 5) != 0 {
		t.Error("zero baselines must not divide by zero")
	}
}

func TestEnvelope(t *testing.T) {
	e, err := EnvelopeOf([]float64{1, 3, 2}, []float64{10, 30, 20})
	if err != nil {
		t.Fatal(err)
	}
	if e.MinX != 1 || e.MaxX != 3 || e.MinY != 10 || e.MaxY != 30 {
		t.Fatalf("envelope = %+v", e)
	}
	for _, c := range []struct{ xs, ys []float64 }{
		{nil, nil},
		{[]float64{1}, []float64{1, 2}},
	} {
		_, err := EnvelopeOf(c.xs, c.ys)
		if err == nil || !strings.HasPrefix(err.Error(), "analysis: ") {
			t.Errorf("EnvelopeOf(%v, %v) error = %v, want an analysis: error", c.xs, c.ys, err)
		}
	}
}

func TestSummarizeQuickInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e150 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Min <= s.Median && s.Median <= s.Max &&
			s.Var >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
