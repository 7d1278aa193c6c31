package carbon

import (
	"fmt"

	"greensched/internal/forecast"
)

// Window is one hour-of-day step of a daily carbon schedule.
type Window struct {
	StartHour float64 // [0,24)
	EndHour   float64 // exclusive; may wrap past midnight
	G         float64 // gCO2/kWh in force over the window
}

// Schedule is a daily step schedule of carbon intensity — the carbon
// analogue of forecast.Tariff, repeating every 24 hours. Hours not
// covered by any window fall back to the default intensity.
type Schedule struct {
	windows []Window
	defG    float64
}

// NewSchedule builds a daily schedule. Uncovered hours yield defG.
func NewSchedule(windows []Window, defG float64) (*Schedule, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("carbon: empty schedule")
	}
	for i, w := range windows {
		if w.StartHour < 0 || w.StartHour >= 24 || w.EndHour < 0 || w.EndHour > 24 {
			return nil, fmt.Errorf("carbon: schedule window %d hours out of range", i)
		}
		if w.G < 0 {
			return nil, fmt.Errorf("carbon: schedule window %d intensity out of range", i)
		}
	}
	if defG < 0 {
		return nil, fmt.Errorf("carbon: schedule default out of range")
	}
	out := make([]Window, len(windows))
	copy(out, windows)
	return &Schedule{windows: out, defG: defG}, nil
}

// FromTariff derives a carbon schedule from an electricity tariff: the
// paper's §IV-C cost states double as a coarse supply signal (peak
// price ⇔ peaking plants ⇔ dirty margin; deep off-peak ⇔ surplus
// base/renewable supply). Each window's cost ratio c∈[0,1] maps
// linearly onto [cleanG, dirtyG].
func FromTariff(tf forecast.Tariff, cleanG, dirtyG float64) (*Schedule, error) {
	if err := tf.Validate(); err != nil {
		return nil, err
	}
	if cleanG < 0 || dirtyG < cleanG {
		return nil, fmt.Errorf("carbon: intensity range [%v,%v] invalid", cleanG, dirtyG)
	}
	windows := make([]Window, 0, len(tf))
	for _, w := range tf {
		windows = append(windows, Window{
			StartHour: w.StartHour,
			EndHour:   w.EndHour,
			G:         cleanG + w.Cost*(dirtyG-cleanG),
		})
	}
	// Uncovered hours behave like regular price, matching
	// Tariff.CostAt's fallback of 1.0.
	return NewSchedule(windows, dirtyG)
}

// IntensityAt returns the intensity in force at time t.
func (s *Schedule) IntensityAt(t float64) float64 {
	h := hourOfDay(t)
	for _, w := range s.windows {
		if w.StartHour <= w.EndHour {
			if h >= w.StartHour && h < w.EndHour {
				return w.G
			}
		} else if h >= w.StartHour || h < w.EndHour { // wraps midnight
			return w.G
		}
	}
	return s.defG
}
