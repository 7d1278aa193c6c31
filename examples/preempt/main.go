// Preemption walkthrough: checkpoint/restart as the escape valve when
// urgent work meets a saturated platform. It prices a checkpoint under
// the restart penalty, shows the safety calculus refusing a victim
// whose own deadline the restart would breach, runs a single-node
// displacement end to end in the simulator, and finishes with the
// express-boot vs preemption study.
package main

import (
	"fmt"
	"os"

	"greensched/internal/cluster"
	"greensched/internal/experiments"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

func main() {
	// A checkpoint keeps the completed fraction of a task's Ops minus
	// the restart penalty's share.
	pre := sla.Preemption{RestartPenaltyFrac: 0.25}
	fmt.Println("Checkpointing a 1e12-op task at 40% done (penalty 0.25):")
	fmt.Printf("  redone ops:    %.0e\n", pre.RedoneOps(4e11))
	fmt.Printf("  remaining ops: %.0e (of 1e12)\n", pre.RemainingOps(1e12, 4e11))

	// The cardinal rule: preemption never manufactures a new breach.
	victim := sla.Terms{Class: "batch", Deadline: 1000, ValueUSD: 0.05, Curve: sla.HardDrop{}}
	fmt.Println("\nSafety calculus for a victim due at t=1000:")
	fmt.Printf("  10 s urgent + 800 s restart at t=100: safe=%v\n",
		sla.SafeToDisplace(100, 10, 800, victim))
	fmt.Printf("  10 s urgent + 950 s restart at t=100: safe=%v\n",
		sla.SafeToDisplace(100, 10, 950, victim))

	// Victim ordering: cheapest displacement first — batch (no
	// deadline, low value) before pricier or tighter work.
	views := []sched.VictimView{
		sched.NewVictimView(sched.TaskView{ID: 0, Ops: 9e12, Value: 0.05}, 100, 900),
		sched.NewVictimView(sched.TaskView{ID: 1, Ops: 9e12, Value: 5, Deadline: 1200}, 100, 900),
	}
	fmt.Printf("\nVictim order picks task %d (lowest value density, most slack)\n",
		views[sched.BestVictim(views, nil)].ID)

	// End to end: a 1000 s batch task holds the only slot when a 10 s
	// task due at t=100 arrives. Without preemption it would wait ~950
	// s and forfeit its $2; with it, the batch is checkpointed and
	// restarts with its progress retained.
	res, err := sim.Run(sim.Config{
		Platform: cluster.MustPlatform(cluster.NewNodes("taurus", 1)),
		Policy:   sched.New(sched.GreenPerf),
		Tasks: []workload.Task{
			{ID: 0, Ops: 9e12, Submit: 0},
			{ID: 1, Ops: 9e10, Submit: 50, Deadline: 100, Value: 2, Class: "hard"},
		},
		Explore:      true,
		Seed:         1,
		SlotsPerNode: 1,
		Modules: []sim.Module{
			&sim.SLAModule{Config: &sla.Config{Catalog: sla.Catalog{"hard": {Name: "hard", Curve: sla.HardDrop{}}}}},
			&sim.PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.25}},
			&sim.RecordModule{}, // the per-task lines below read Result.Records
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nSingle-slot displacement (%d preemption):\n", res.Preemptions)
	for _, rec := range res.Records {
		fmt.Printf("  task %d: %.0f→%.0f s, %d checkpoints, %.0f J attributed, earned $%.2f\n",
			rec.ID, rec.Start, rec.Finish, rec.Preemptions, rec.EnergyShareJ, rec.EarnedUSD)
	}

	// The study: express boots alone vs preemption on a saturated
	// platform.
	fmt.Println()
	study, err := experiments.RunPreemptionStudy(experiments.DefaultPreemptionConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := study.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
