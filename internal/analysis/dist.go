package analysis

import "math"

// Distribution numerics for the Student-t confidence intervals and
// Welch tests: Lanczos log-gamma, the regularized incomplete beta
// function by Lentz continued fraction, and the t CDF/quantile built
// on top of them. Implemented from the standard formulations
// (Numerical Recipes §6.1, §6.4) against stdlib-only constraints.

// lanczosCoef are the g=7, n=9 Lanczos coefficients.
var lanczosCoef = [9]float64{
	0.99999999999980993,
	676.5203681218851,
	-1259.1392167224028,
	771.32342877765313,
	-176.61502916214059,
	12.507343278686905,
	-0.13857109526572012,
	9.9843695780195716e-6,
	1.5056327351493116e-7,
}

// logGamma returns ln Γ(x) for x > 0.
func logGamma(x float64) float64 {
	if x < 0.5 {
		// Reflection: Γ(x)Γ(1−x) = π/sin(πx).
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - logGamma(1-x)
	}
	x--
	a := lanczosCoef[0]
	t := x + 7.5
	for i := 1; i < 9; i++ {
		a += lanczosCoef[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// RegIncBeta returns the regularized incomplete beta function
// I_x(a, b) for a, b > 0 and x in [0, 1].
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// Prefactor x^a (1-x)^b / (a B(a,b)).
	ln := logGamma(a+b) - logGamma(a) - logGamma(b) +
		a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	// The continued fraction converges fast for x < (a+1)/(a+b+2);
	// otherwise use the symmetry I_x(a,b) = 1 − I_{1−x}(b,a).
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(ln)*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// TCDF returns P(T <= x) for Student's t with nu > 0 degrees of
// freedom.
func TCDF(x, nu float64) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0.5
	}
	// P(|T| > |x|) = I_{nu/(nu+x^2)}(nu/2, 1/2).
	p := RegIncBeta(nu/2, 0.5, nu/(nu+x*x)) / 2
	if x > 0 {
		return 1 - p
	}
	return p
}

// TQuantile returns the p-quantile of Student's t with nu degrees of
// freedom (the value t with TCDF(t, nu) = p), by bisection. p must be
// in (0, 1).
func TQuantile(p, nu float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 || nu <= 0 {
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	// Symmetric: solve for the upper half only.
	if p < 0.5 {
		return -TQuantile(1-p, nu)
	}
	lo, hi := 0.0, 1.0
	for TCDF(hi, nu) < p {
		hi *= 2
		if hi > 1e9 { // p indistinguishable from 1 at this nu
			return math.Inf(1)
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}
