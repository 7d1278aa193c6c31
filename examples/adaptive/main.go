// Adaptive provisioning: the §IV-C scenario with a custom event
// timeline. A closed-loop client keeps the candidate pool saturated
// while the planner reacts to electricity-price schedules (anticipated
// through its lookahead window) and unexpected heat events (detected
// at check time); drained nodes power off and boot back progressively.
package main

import (
	"fmt"
	"os"

	"greensched/internal/experiments"
	"greensched/internal/provision"
)

func main() {
	// A 2-hour timeline: one scheduled off-peak window and one
	// unexpected heat spike in the middle of it.
	store := provision.NewStore()
	store.Put(provision.Record{Value: 0, Cost: 1.0, Temperature: 22})
	store.Put(provision.Record{Value: 30 * 60, Cost: 0.5, Temperature: 22}) // scheduled off-peak
	store.Put(provision.Record{Value: 60 * 60, Cost: 0.5, Temperature: 28, Unexpected: true})
	store.Put(provision.Record{Value: 90 * 60, Cost: 0.5, Temperature: 21, Unexpected: true})

	// The run uses the paper's planner: 10-minute checks, a 2-node floor.
	res, err := experiments.RunAdaptive(experiments.AdaptiveConfig{
		Store:      store,
		TaskOps:    1.8e12,
		HorizonMin: 120,
		Seed:       1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%6s  %10s  %12s  %8s\n", "min", "candidates", "avg power W", "running")
	for _, s := range res.Samples {
		fmt.Printf("%6.0f  %10d  %12.0f  %8d\n", s.T/60, s.Candidates, s.AvgW, s.Running)
	}
	fmt.Printf("\ncompleted=%d tasks, energy=%.1f MJ, boots=%d, mean drain lag=%.0fs\n",
		res.Completed, res.EnergyJ/1e6, res.Boots, res.DrainLagS)
	for _, d := range res.Decisions {
		if d.Changed != 0 {
			fmt.Printf("t+%3.0fmin rule=%-12s pool %2d (%+d)\n",
				d.At/60, d.RuleNow, d.Pool, d.Changed)
		}
	}
}
