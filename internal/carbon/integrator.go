package carbon

import "fmt"

// Integrator turns a node's exact piecewise-constant power signal into
// cumulative grams of CO2. Simulation code calls Advance with the draw
// that held since the previous call — the same contract as
// power.Accumulator — and the integrator weights each interval by the
// signal's exact mean intensity over it, so the result is exact for
// piecewise-constant power against any Signal with an exact
// MeanIntensity.
type Integrator struct {
	site  SiteProfile
	lastT float64
	grams float64
}

// NewIntegrator starts integrating at time t0 against a site's grid.
func NewIntegrator(site SiteProfile, t0 float64) (*Integrator, error) {
	if err := site.Validate(); err != nil {
		return nil, err
	}
	return &Integrator{site: site, lastT: t0}, nil
}

// Advance accounts emissions for the interval [lastT, t] at draw w
// (watts), then moves the cursor to t. Advancing backwards panics: it
// is always a simulation bug, mirroring power.Accumulator.
func (in *Integrator) Advance(t float64, w float64) {
	if t < in.lastT {
		panic(fmt.Sprintf("carbon: integrator moved backwards: %.3f -> %.3f", in.lastT, t))
	}
	joules := w * (t - in.lastT) * in.site.pue()
	in.grams += joules / JoulesPerKWh * in.site.Signal.MeanIntensity(in.lastT, t)
	in.lastT = t
}

// Grams returns the accumulated emissions.
func (in *Integrator) Grams() float64 { return in.grams }

// Grams converts an energy amount drawn entirely within [t0, t1] at a
// site into grams of CO2 — the one-shot form of the integrator, used
// to attribute per-task emissions from task records.
func Grams(site SiteProfile, joules, t0, t1 float64) float64 {
	return joules * site.pue() / JoulesPerKWh * site.Signal.MeanIntensity(t0, t1)
}
