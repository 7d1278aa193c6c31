// Placement study: a compact version of the paper's §IV-A experiment.
// A burst-then-continuous stream of CPU-bound tasks is scheduled on
// the Table I platform under the RANDOM, POWER and PERFORMANCE plug-in
// policies; the example prints per-cluster task distribution, energy
// and the headline gains, mirroring Figures 2-5 and Table II.
package main

import (
	"fmt"
	"os"

	"greensched/internal/analysis"
	"greensched/internal/cluster"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

func main() {
	platform := cluster.PaperPlatform()
	// 3 requests per core keeps the example quick; the full harness
	// (cmd/greensched placement) uses the paper's 10 per core.
	tasks, err := workload.BurstThenRate{
		Total: workload.PerCore(platform.Cores(), 3),
		Burst: platform.Cores() / 10,
		Rate:  0.45,
		Ops:   9.0e11,
	}.Tasks()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	results := map[sched.Kind]*sim.Result{}
	for _, kind := range sched.Kinds() {
		res, err := sim.Run(sim.Config{
			Platform:   platform,
			Policy:     sched.New(kind),
			Tasks:      tasks,
			Explore:    kind != sched.Random,
			Contention: 0.08,
			ExecJitter: 0.02,
			Seed:       1,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		results[kind] = res
	}

	fmt.Printf("%-12s %10s %14s   %s\n", "policy", "makespan", "energy (J)", "tasks per cluster")
	for _, kind := range sched.Kinds() {
		res := results[kind]
		fmt.Printf("%-12s %9.0fs %14.0f   taurus=%d orion=%d sagittaire=%d\n",
			kind, res.Makespan, res.EnergyJ,
			res.PerClusterTasks["taurus"], res.PerClusterTasks["orion"], res.PerClusterTasks["sagittaire"])
	}

	gain := analysis.Gain(results[sched.Random].EnergyJ, results[sched.Power].EnergyJ)
	loss := analysis.Loss(results[sched.Performance].Makespan, results[sched.Power].Makespan)
	fmt.Printf("\nPOWER saves %.1f%% energy vs RANDOM at a %.1f%% makespan cost vs PERFORMANCE\n",
		gain*100, loss*100)
	fmt.Println("(paper: 25% energy gain, ≤6% performance loss)")
}
