// Package carbon models time-varying grid carbon-intensity signals and
// turns the simulator's exact energy accounting into grams of CO2.
//
// The paper's GreenPerf metric trades performance against watts; this
// package adds the other green axis: *when* and *where* those watts are
// drawn. Grid carbon intensity (gCO2 per kWh) and renewable
// availability vary by hour and by site, so the same joule costs very
// different emissions depending on the moment and the grid behind the
// socket. Related work schedules directly against such supply signals
// (Li et al., "On Time-Sensitive Revenue Management and Energy
// Scheduling in Green Data Centers"; Lu & Chen, "Simple and Effective
// Dynamic Provisioning for Power-Proportional Data Centers").
//
// The package provides:
//
//   - Signal, the interface over intensity sources, with exact
//     time-averaging so piecewise-constant energy integrates to exact
//     grams;
//   - Constant and Diurnal (sinusoidal day/night model) sources, and
//     Schedule, daily step windows derived from a forecast tariff;
//   - SiteProfile / Profile, mapping clusters of a multi-site platform
//     onto different grids;
//   - Integrator, the watts→grams accumulator the simulator drives.
package carbon

import (
	"fmt"
	"math"
)

// JoulesPerKWh converts the simulator's joules into the kilowatt-hours
// carbon intensities are quoted against.
const JoulesPerKWh = 3.6e6

// DaySeconds is one diurnal period.
const DaySeconds = 86400.0

// Signal is a time-varying grid signal: carbon intensity in gCO2/kWh
// plus the fraction of supply coming from renewables. Times are
// seconds on the simulation timeline (t=0 is midnight of day zero, so
// hour-of-day math lines up with forecast.Tariff).
type Signal interface {
	// IntensityAt returns the grid carbon intensity at time t in
	// gCO2 per kWh drawn.
	IntensityAt(t float64) float64
	// RenewableAt returns the renewable supply fraction in [0,1].
	RenewableAt(t float64) float64
	// MeanIntensity returns the exact time-average of the intensity
	// over [t0, t1]. Implementations must be exact for their own
	// shape (analytic for sinusoids, step-weighted for schedules) so
	// that integrating piecewise-constant power against the signal
	// yields exact grams. t1 < t0 is a caller bug; implementations
	// may treat it as an empty interval.
	MeanIntensity(t0, t1 float64) float64
}

// Constant is a flat grid: the degenerate signal that makes
// carbon-aware scheduling coincide with energy-aware scheduling.
type Constant struct {
	G float64 // gCO2/kWh
	R float64 // renewable fraction
}

// IntensityAt implements Signal.
func (c Constant) IntensityAt(float64) float64 { return c.G }

// RenewableAt implements Signal.
func (c Constant) RenewableAt(float64) float64 { return c.R }

// MeanIntensity implements Signal.
func (c Constant) MeanIntensity(_, _ float64) float64 { return c.G }

// Validate reports a descriptive error for unusable parameters.
func (c Constant) Validate() error {
	if c.G < 0 || c.R < 0 || c.R > 1 {
		return fmt.Errorf("carbon: constant signal G=%v R=%v out of range", c.G, c.R)
	}
	return nil
}

// Diurnal is the synthetic day/night model: a sinusoid with one cycle
// per day, cleanest (lowest intensity, highest renewable fraction) at
// CleanHour — a solar-dominated grid peaks its renewables around
// midday; a wind-dominated one often overnight.
//
//	I(t) = MeanG − AmplitudeG·cos(2π·(h−CleanHour)/24)
//
// where h is the hour of day of t. Intensity spans
// [MeanG−AmplitudeG, MeanG+AmplitudeG].
type Diurnal struct {
	MeanG      float64 // daily mean intensity, gCO2/kWh
	AmplitudeG float64 // half the peak-to-trough swing, gCO2/kWh
	CleanHour  float64 // hour of day [0,24) of minimum intensity

	// RenewableMin / RenewableMax bound the renewable fraction; the
	// fraction peaks at CleanHour. Zero values mean "no renewable
	// model" (fraction 0).
	RenewableMin float64
	RenewableMax float64
}

// Validate reports a descriptive error for unusable parameters.
func (d Diurnal) Validate() error {
	switch {
	case d.MeanG <= 0:
		return fmt.Errorf("carbon: diurnal mean %v must be positive", d.MeanG)
	case d.AmplitudeG < 0 || d.AmplitudeG > d.MeanG:
		return fmt.Errorf("carbon: diurnal amplitude %v outside [0, mean=%v]", d.AmplitudeG, d.MeanG)
	case d.CleanHour < 0 || d.CleanHour >= 24:
		return fmt.Errorf("carbon: clean hour %v outside [0,24)", d.CleanHour)
	case d.RenewableMin < 0 || d.RenewableMax > 1 || d.RenewableMin > d.RenewableMax:
		return fmt.Errorf("carbon: renewable bounds [%v,%v] invalid", d.RenewableMin, d.RenewableMax)
	}
	return nil
}

// phase returns the cosine argument for time t.
func (d Diurnal) phase(t float64) float64 {
	return 2 * math.Pi * (t/DaySeconds - d.CleanHour/24)
}

// IntensityAt implements Signal.
func (d Diurnal) IntensityAt(t float64) float64 {
	return d.MeanG - d.AmplitudeG*math.Cos(d.phase(t))
}

// RenewableAt implements Signal: the fraction follows the inverse
// shape of the intensity, peaking at CleanHour.
func (d Diurnal) RenewableAt(t float64) float64 {
	mid := (d.RenewableMin + d.RenewableMax) / 2
	amp := (d.RenewableMax - d.RenewableMin) / 2
	return mid + amp*math.Cos(d.phase(t))
}

// MeanIntensity implements Signal with the analytic integral of the
// sinusoid, so carbon accounting over a diurnal grid stays exact.
func (d Diurnal) MeanIntensity(t0, t1 float64) float64 {
	if t1 <= t0 {
		return d.IntensityAt(t0)
	}
	// ∫cos(φ(t))dt over [t0,t1] = (T/2π)·[sin φ(t1) − sin φ(t0)]
	// with T the day length.
	integral := DaySeconds / (2 * math.Pi) * (math.Sin(d.phase(t1)) - math.Sin(d.phase(t0)))
	return d.MeanG - d.AmplitudeG*integral/(t1-t0)
}

// hourOfDay maps an absolute time to [0,24).
func hourOfDay(t float64) float64 {
	h := math.Mod(t/3600, 24)
	if h < 0 {
		h += 24
	}
	return h
}
