package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogGammaKnown(t *testing.T) {
	// Γ(1)=1, Γ(2)=1, Γ(3)=2, Γ(0.5)=√π, Γ(10)=362880.
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
		{10, math.Log(362880)},
	}
	for _, c := range cases {
		if got := logGamma(c.x); math.Abs(got-c.want) > 1e-10*(1+math.Abs(c.want)) {
			t.Errorf("logGamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestRegIncBetaKnown(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// I_x(2,2) = 3x^2 - 2x^3 (Beta(2,2) CDF).
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		want := 3*x*x - 2*x*x*x
		if got := RegIncBeta(2, 2, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	if got, want := RegIncBeta(3.5, 1.25, 0.37), 1-RegIncBeta(1.25, 3.5, 0.63); math.Abs(got-want) > 1e-12 {
		t.Errorf("symmetry: %v vs %v", got, want)
	}
}

func TestRegIncBetaQuickProperties(t *testing.T) {
	f := func(ra, rb, rx, ry float64) bool {
		a := 0.5 + math.Abs(math.Mod(ra, 20))
		b := 0.5 + math.Abs(math.Mod(rb, 20))
		x := math.Abs(math.Mod(rx, 1))
		y := math.Abs(math.Mod(ry, 1))
		if x > y {
			x, y = y, x
		}
		ix, iy := RegIncBeta(a, b, x), RegIncBeta(a, b, y)
		// In [0,1], monotone nondecreasing in x.
		return ix >= -1e-12 && iy <= 1+1e-12 && ix <= iy+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCDFKnown(t *testing.T) {
	// With nu → large, TCDF approaches the normal CDF.
	if got, want := TCDF(1.959964, 1e6), 0.975; math.Abs(got-want) > 1e-4 {
		t.Errorf("TCDF(1.96, 1e6) = %v, want ≈%v", got, want)
	}
	// nu=1 is Cauchy: CDF(1) = 3/4.
	if got := TCDF(1, 1); math.Abs(got-0.75) > 1e-10 {
		t.Errorf("TCDF(1,1) = %v, want 0.75", got)
	}
	if got := TCDF(0, 5); got != 0.5 {
		t.Errorf("TCDF(0,5) = %v, want 0.5", got)
	}
}

func TestTQuantileAgainstTables(t *testing.T) {
	// Classic two-sided 95% critical values t_{0.975, nu}.
	cases := []struct{ nu, want float64 }{
		{1, 12.706},
		{2, 4.303},
		{5, 2.571},
		{10, 2.228},
		{30, 2.042},
		{120, 1.980},
	}
	for _, c := range cases {
		got := TQuantile(0.975, c.nu)
		if math.Abs(got-c.want) > 0.002 {
			t.Errorf("t_{0.975,%v} = %v, want %v", c.nu, got, c.want)
		}
	}
}

func TestTQuantileRoundTrip(t *testing.T) {
	f := func(rp, rnu float64) bool {
		p := 0.001 + 0.998*math.Abs(math.Mod(rp, 1))
		nu := 1 + math.Abs(math.Mod(rnu, 200))
		q := TQuantile(p, nu)
		back := TCDF(q, nu)
		return math.Abs(back-p) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.6, 0.8, 0.95, 0.999} {
		for _, nu := range []float64{1, 4, 17, 93} {
			if got, want := TQuantile(1-p, nu), -TQuantile(p, nu); math.Abs(got-want) > 1e-9 {
				t.Errorf("TQuantile(%v,%v) = %v, want %v", 1-p, nu, got, want)
			}
		}
	}
}

func TestTQuantileDomain(t *testing.T) {
	for _, p := range []float64{-0.1, 0, 1, 1.1, math.NaN()} {
		if got := TQuantile(p, 5); !math.IsNaN(got) {
			t.Errorf("TQuantile(%v, 5) = %v, want NaN", p, got)
		}
	}
	if got := TQuantile(0.9, 0); !math.IsNaN(got) {
		t.Errorf("TQuantile(0.9, 0) = %v, want NaN", got)
	}
}

func TestTApproachesNormalForLargeNu(t *testing.T) {
	// Standard normal quantiles Φ⁻¹(p).
	for _, c := range []struct{ p, z float64 }{
		{0.7, 0.5244005127},
		{0.9, 1.2815515655},
		{0.975, 1.9599639845},
		{0.999, 3.0902323062},
	} {
		if tq := TQuantile(c.p, 1e7); math.Abs(tq-c.z) > 1e-3 {
			t.Errorf("t_{%v,1e7} = %v vs normal %v", c.p, tq, c.z)
		}
	}
}
