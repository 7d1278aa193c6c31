package consolidation_test

import (
	"fmt"

	"greensched/internal/cluster"
	"greensched/internal/consolidation"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

// Example runs the related-work baseline end to end: concentration
// placement plus an idle-timeout power controller on a workload with a
// long idle gap.
func Example() {
	first, _ := workload.BurstThenRate{Total: 24, Burst: 24, Ops: 4.5e11}.Tasks()
	second, _ := workload.BurstThenRate{Total: 24, Burst: 6, Rate: 0.25, Ops: 4.5e11}.Tasks()
	tasks := workload.Merge(first, workload.Shift(second, 1800))

	ctl := &consolidation.Controller{IdleTimeout: 600, MinOn: 2}
	if err := ctl.Validate(); err != nil {
		panic(err)
	}
	res, err := sim.Run(sim.Config{
		Platform:     cluster.PaperPlatform(),
		Policy:       consolidation.Policy{},
		Tasks:        tasks,
		Seed:         1,
		Modules:      []sim.Module{&consolidation.Module{Controller: ctl}},
		ControlEvery: 60,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed %d tasks; nodes were shut down: %v\n",
		res.Completed, res.Shutdowns > 0)
	// Output: completed 48 tasks; nodes were shut down: true
}
