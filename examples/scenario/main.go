// Composable scenarios: sim.NewScenario builds a run from a platform,
// a workload and a stack of sim.Module values — carbon accounting, SLA
// machinery, checkpoint/restart preemption, a power-management
// controller and an energy-budget tracker all attach as modules, with
// no glue code between them. This walkthrough stacks all five on a
// small two-site platform and prints what each module contributed.
package main

import (
	"fmt"
	"os"

	"greensched/internal/budget"
	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/consolidation"
	"greensched/internal/core"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	// A trimmed two-site platform: taurus on a solar-diurnal grid,
	// sagittaire on a flat fossil one.
	platform := cluster.MustPlatform(
		cluster.NewNodes("taurus", 2),
		cluster.NewNodes("sagittaire", 2),
	)
	profile := carbon.MustProfile(carbon.SiteProfile{Site: "solar-valley", Signal: carbon.Diurnal{
		MeanG: 300, AmplitudeG: 250, CleanHour: 13, RenewableMin: 0.05, RenewableMax: 0.8,
	}})
	if err := profile.SetCluster("sagittaire", carbon.SiteProfile{Site: "fossil-ridge",
		Signal: carbon.Diurnal{MeanG: 450, AmplitudeG: 50, CleanHour: 13}}); err != nil {
		fail(err)
	}

	// Morning mix: a deferrable batch burst at 08:00 plus an urgent
	// interactive stream with two-minute deadlines.
	batch, err := workload.BurstThenRate{Total: 36, Burst: 36, Ops: 1.9e12, Class: sla.ClassBatch}.Tasks()
	if err != nil {
		fail(err)
	}
	urgent, err := workload.BurstThenRate{Total: 18, Rate: 1.0 / 700, Ops: 9e10,
		Class: sla.ClassInteractive, RelDeadline: 120}.Tasks()
	if err != nil {
		fail(err)
	}
	tasks := workload.Merge(
		workload.Shift(batch, 8*3600),
		workload.Shift(urgent, 8*3600),
	)

	// The module stack. Order is the hook order: carbon accounting
	// first, then budget metering (before the SLA module, so its
	// over-budget steering stays inside the deadline screen), then SLA
	// terms/admission, then preemption semantics, then the power
	// controller.
	tracker, err := budget.NewTracker(50e6, 24*3600) // 50 MJ over the day
	if err != nil {
		fail(err)
	}
	ctl := &consolidation.CarbonController{
		Profile:          profile,
		CleanG:           250,
		DirtyG:           450,
		IdleTimeout:      900,
		MinOn:            1,
		MaxDeferSec:      12 * 3600,
		DeadlineSlackSec: 300,
		PreemptBatch:     true,
	}
	cfg := sim.NewScenario(platform, tasks,
		sim.WithPolicy(sched.New(sched.Carbon)),
		sim.WithExplore(),
		sim.WithSeed(1),
		sim.WithSlotsPerNode(1),
		sim.WithTick(120),
		sim.WithRetryEvery(300),
		sim.WithModules(
			&sim.CarbonModule{Profile: profile},
			&budget.Module{Tracker: tracker, Steer: true, Base: core.PrefNone},
			&sim.SLAModule{
				Config: &sla.Config{
					Catalog:      sla.DefaultCatalog(),
					Admission:    &sla.Admission{Margin: 1},
					Order:        sched.NewOrder(sched.EDF),
					UrgentBypass: true,
				},
				WrapDeadline: true,
			},
			&sim.PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.1}},
			&consolidation.Module{Controller: ctl},
		),
	)

	res, err := sim.Run(cfg)
	if err != nil {
		fail(err)
	}

	fmt.Printf("one run, five modules — %d tasks under %s\n\n", res.Completed, res.Policy)
	fmt.Printf("carbon module:    %.0f g CO2 (%.2f g/task), per-site accounting attached\n",
		res.CO2Grams, res.GramsPerTask())
	if res.SLA != nil {
		fmt.Printf("sla module:       $%.2f earned, $%.2f forfeited, %d late, %d rejected\n",
			res.SLA.EarnedUSD, res.SLA.ForfeitedUSD, res.SLA.Misses, res.Rejected)
	}
	fmt.Printf("preempt module:   %d checkpoint/displace events (%.0f s of work redone)\n",
		res.Preemptions, res.PreemptRedoneOps/9e9)
	fmt.Printf("controller:       %d boots, %d shutdowns (carbon candidacy windows)\n",
		res.Boots, res.Shutdowns)
	fmt.Printf("budget module:    %.2f MJ of task energy metered, %.2f MJ of budget left\n",
		tracker.Spent()/1e6, tracker.Remaining()/1e6)
	fmt.Printf("\nmakespan %.1f h, platform energy %.2f MJ\n", res.Makespan/3600, float64(res.EnergyJ)/1e6)
}
