package core

// This file holds the carbon-aware extension of the paper's ranking
// model. GreenPerf divides watts by performance; CarbonPerf divides
// the *emissions rate* by performance instead, so a multi-site
// platform can prefer a slightly hungrier server on a much cleaner
// grid. The CARBON sched policy ranks by it.

// CarbonPerf returns the intensity-weighted ranking ratio
//
//	(Power Consumption × Grid Carbon Intensity) / Performance
//
// in (W·gCO2/kWh) per flop/s — proportional to grams emitted per flop;
// lower is better. With equal intensities everywhere it orders
// identically to GreenPerf; with per-site intensities it trades watts
// against grid cleanliness.
func (s Server) CarbonPerf() float64 {
	return s.PowerW * s.effectiveIntensity() / s.Flops
}

// effectiveIntensity substitutes a neutral 1 g/kWh for servers whose
// site intensity is unknown, so CarbonPerf degrades to GreenPerf
// instead of collapsing to zero. Callers comparing across sites should
// populate CarbonIntensity for every server.
func (s Server) effectiveIntensity() float64 {
	if s.CarbonIntensity <= 0 {
		return 1
	}
	return s.CarbonIntensity
}
