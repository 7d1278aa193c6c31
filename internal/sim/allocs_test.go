package sim_test

import (
	"io"
	"math/rand"
	"testing"

	"greensched/internal/budget"
	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/core"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// allocsPerTask runs cfg once to warm up, then once more measured, and
// returns the heap allocations per task of the measured run.
func allocsPerTask(t *testing.T, build func() sim.Config) float64 {
	t.Helper()
	var n int
	allocs := testing.AllocsPerRun(1, func() {
		cfg := build()
		n = len(cfg.Tasks)
		if _, err := sim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	return allocs / float64(n)
}

// TestKernelAllocsPerTask pins what the kernel allocates per task: its
// events are values on one heap, its records live in recycled arenas,
// and the module stack's election policies are module-owned scratch,
// so neither a bare run nor a fully stacked one allocates per task —
// what is left is the run's fixed set-up and the amortized growth of
// its slices (the wattmeters' sample traces, the result's series).
func TestKernelAllocsPerTask(t *testing.T) {
	for _, c := range []struct {
		name  string
		limit float64
		build func() sim.Config
	}{
		{"steady", 0.05, steadyConfig},
		{"stack", 0.3, stackConfig},
	} {
		got := allocsPerTask(t, c.build)
		t.Logf("%s: %.4f allocs per task", c.name, got)
		if got > c.limit {
			t.Errorf("%s: %.4f allocs per task, want ≤ %g", c.name, got, c.limit)
		}
	}
}

// steadyConfig is the sim-steady shape: Poisson arrivals just under the
// paper platform's capacity, so queues stay empty.
func steadyConfig() sim.Config {
	tasks, err := workload.Poisson{Total: 40_000, Rate: 0.9, Ops: 9e11, Seed: 1}.Tasks()
	if err != nil {
		panic(err)
	}
	return sim.NewScenario(cluster.PaperPlatform(), tasks,
		sim.WithPolicy(sched.New(sched.GreenPerf)), sim.WithExplore(), sim.WithSeed(1))
}

// stackConfig is the sim-stack shape: a backlogged mixed-class trace
// under carbon, budget steering, SLA admission with EDF queues,
// preemption and telemetry, ticking every two minutes.
func stackConfig() sim.Config {
	tasks, err := workload.BurstThenRate{Total: 10_000, Burst: 512, Rate: 4, Ops: 9e11, Class: sla.ClassBatch}.Tasks()
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range tasks {
		if rng.Float64() < 0.2 {
			tasks[i].Class = sla.ClassInteractive
			tasks[i].Ops = 9e10
			tasks[i].Deadline = tasks[i].Submit + 120
		}
	}
	profile := carbon.MustProfile(carbon.SiteProfile{
		Site:   "lyon",
		Signal: carbon.Diurnal{MeanG: 300, AmplitudeG: 200, CleanHour: 13, RenewableMin: 0.1, RenewableMax: 0.8},
		PUE:    1.2,
	})
	// Over budget from the ramp-up on: steering runs on most elections.
	tracker, err := budget.NewTracker(3.8e7, 1e4)
	if err != nil {
		panic(err)
	}
	return sim.NewScenario(cluster.PaperPlatform(), tasks,
		sim.WithPolicy(sched.New(sched.GreenPerf)), sim.WithExplore(), sim.WithSeed(1), sim.WithTick(120),
		sim.WithModules(
			&sim.CarbonModule{Profile: profile},
			&budget.Module{Tracker: tracker, Steer: true, Base: core.PrefNone},
			&sim.SLAModule{
				Config: &sla.Config{
					Admission: &sla.Admission{Margin: 1},
					Order:     sched.NewOrder(sched.EDF), UrgentBypass: true,
				},
				WrapDeadline: true,
			},
			&sim.PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.1}},
			&sim.TelemetryModule{W: io.Discard, Profile: profile},
		))
}
