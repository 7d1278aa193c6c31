// Package forecast holds the electricity-price input of the §III-C
// provider preference: a daily tariff schedule (the paper's regular and
// off-peak states) and the helpers that turn it into
// provisioning-plan records.
package forecast

import (
	"fmt"
	"math"

	"greensched/internal/provision"
)

// TariffWindow is one electricity-price window of a daily schedule.
type TariffWindow struct {
	StartHour float64 // hour of day, [0, 24)
	EndHour   float64 // exclusive; may wrap past midnight
	Cost      float64 // cost ratio in [0,1] (the paper's c)
}

// Tariff is a daily electricity price schedule — the paper's regular /
// off-peak-1 / off-peak-2 states (§IV-C: 1.0, 0.8, 0.5).
type Tariff []TariffWindow

// PaperTariff returns the §IV-C three-state schedule mapped onto a
// plausible day: regular 08-22h (1.0), off-peak-1 22-02h (0.8),
// off-peak-2 02-08h (0.5).
func PaperTariff() Tariff {
	return Tariff{
		{StartHour: 8, EndHour: 22, Cost: 1.0},
		{StartHour: 22, EndHour: 2, Cost: 0.8},
		{StartHour: 2, EndHour: 8, Cost: 0.5},
	}
}

// Validate checks window sanity.
func (tf Tariff) Validate() error {
	if len(tf) == 0 {
		return fmt.Errorf("forecast: empty tariff")
	}
	for i, w := range tf {
		if w.StartHour < 0 || w.StartHour >= 24 || w.EndHour < 0 || w.EndHour > 24 {
			return fmt.Errorf("forecast: window %d hours out of range", i)
		}
		if w.Cost < 0 || w.Cost > 1 {
			return fmt.Errorf("forecast: window %d cost %v outside [0,1]", i, w.Cost)
		}
	}
	return nil
}

// CostAt returns the cost ratio in force at hour-of-day h (windows may
// wrap midnight); defaults to 1.0 (regular) when uncovered.
func (tf Tariff) CostAt(h float64) float64 {
	h = math.Mod(h, 24)
	if h < 0 {
		h += 24
	}
	for _, w := range tf {
		if w.StartHour <= w.EndHour {
			if h >= w.StartHour && h < w.EndHour {
				return w.Cost
			}
		} else { // wraps midnight
			if h >= w.StartHour || h < w.EndHour {
				return w.Cost
			}
		}
	}
	return 1.0
}

// PlanRecords materializes the tariff into scheduled plan records over
// [from, to) (seconds), one per window boundary, with the given
// temperature. The provisioning planner's lookahead then anticipates
// every price change exactly as in §IV-C Event 1.
func (tf Tariff) PlanRecords(from, to float64, temperature float64) ([]provision.Record, error) {
	if err := tf.Validate(); err != nil {
		return nil, err
	}
	if to <= from {
		return nil, fmt.Errorf("forecast: empty horizon")
	}
	var out []provision.Record
	last := math.NaN()
	for t := from; t < to; t += 3600 {
		hour := math.Mod(t/3600, 24)
		c := tf.CostAt(hour)
		if c != last {
			out = append(out, provision.Record{
				Value:       int64(t),
				Cost:        c,
				Temperature: temperature,
			})
			last = c
		}
	}
	return out, nil
}
