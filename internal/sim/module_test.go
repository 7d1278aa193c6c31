package sim

import (
	"testing"

	"greensched/internal/sched"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

func TestNewScenarioDefaults(t *testing.T) {
	cfg := NewScenario(smallPlatform(), tasks(4, 1e11, 1))
	if cfg.Policy == nil || cfg.Policy.Name() != "GREENPERF" {
		t.Errorf("default policy %v, want GREENPERF", cfg.Policy)
	}
	cfg = NewScenario(smallPlatform(), tasks(4, 1e11, 1),
		WithPolicy(sched.New(sched.Random)),
		WithSeed(7),
		WithSlotsPerNode(1),
		WithTick(60),
		WithRetryEvery(5),
		WithStatic(),
		WithModules(&HookModule{}, &HookModule{}),
	)
	if cfg.Policy.Name() != "RANDOM" || cfg.Seed != 7 || cfg.SlotsPerNode != 1 ||
		cfg.ControlEvery != 60 || cfg.RetryEvery != 5 ||
		!cfg.Static || len(cfg.Modules) != 2 {
		t.Errorf("options not applied: %+v", cfg)
	}
}

// TestOnArrivalObservesFirstSubmissionsOnly: the hook fires once per
// task (never for retries or queue movements) and may mutate the task
// before election.
func TestOnArrivalObservesFirstSubmissionsOnly(t *testing.T) {
	seen := map[int]int{}
	res, err := Run(NewScenario(smallPlatform(), tasks(20, 1e11, 2),
		WithSeed(5),
		WithModules(&HookModule{OnArrivalFunc: func(_ float64, task *workload.Task) {
			seen[task.ID]++
		}}),
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 20 {
		t.Fatalf("completed %d", res.Completed)
	}
	if len(seen) != 20 {
		t.Fatalf("hook saw %d distinct tasks, want 20", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("task %d observed %d times, want 1", id, n)
		}
	}
}

// TestOnArrivalCanMutateTask: halving every task's Ops at arrival must
// shorten the run — proof the election and execution see the mutation.
func TestOnArrivalCanMutateTask(t *testing.T) {
	run := func(halve bool) *Result {
		var mods []Module
		if halve {
			mods = append(mods, &HookModule{OnArrivalFunc: func(_ float64, task *workload.Task) {
				task.Ops /= 2
			}})
		}
		res, err := Run(NewScenario(smallPlatform(), tasks(10, 4e11, 1),
			WithSeed(3), WithModules(mods...)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full, halved := run(false), run(true)
	if halved.Makespan >= full.Makespan {
		t.Errorf("halved-ops run (%.0f s) not shorter than full run (%.0f s)",
			halved.Makespan, full.Makespan)
	}
}

// TestOnArrivalMutationReachesSLATerms: a module that reclassifies a
// task at arrival must see the new class's terms in the ledger —
// terms re-resolve after the OnArrival hooks, they are not frozen at
// Init.
func TestOnArrivalMutationReachesSLATerms(t *testing.T) {
	run := func(upgrade bool) *Result {
		mods := []Module{&SLAModule{Config: &sla.Config{}}} // default catalog, ledger only
		if upgrade {
			mods = append([]Module{&HookModule{OnArrivalFunc: func(_ float64, task *workload.Task) {
				task.Class = sla.ClassInteractive // $2.00 instead of batch's $0.05
			}}}, mods...)
		}
		batch, err := workload.BurstThenRate{Total: 6, Burst: 2, Rate: 0.05, Ops: 1e11,
			Class: sla.ClassBatch}.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		res, err := runRecorded(NewScenario(smallPlatform(), batch, WithSeed(2), WithModules(mods...)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, upgraded := run(false), run(true)
	if plain.SLA == nil || upgraded.SLA == nil {
		t.Fatal("ledger missing")
	}
	if upgraded.SLA.EarnedUSD <= plain.SLA.EarnedUSD {
		t.Errorf("reclassified run earned $%.2f, not above $%.2f — OnArrival mutation never reached the terms",
			upgraded.SLA.EarnedUSD, plain.SLA.EarnedUSD)
	}
	for _, rec := range upgraded.Records {
		if rec.Class != sla.ClassInteractive {
			t.Errorf("task %d kept class %q", rec.ID, rec.Class)
		}
	}
}

func TestFinalizeSeesSettledTotals(t *testing.T) {
	var energy float64
	var completed int
	_, err := Run(NewScenario(smallPlatform(), tasks(8, 1e11, 2),
		WithSeed(1),
		WithModules(&HookModule{FinalizeFunc: func(res *Result) {
			energy = float64(res.EnergyJ)
			completed = res.Completed
		}}),
	))
	if err != nil {
		t.Fatal(err)
	}
	if completed != 8 || energy <= 0 {
		t.Errorf("finalize saw completed=%d energy=%v", completed, energy)
	}
}

func TestDuplicateModulesRejected(t *testing.T) {
	slaMod := func() Module { return &SLAModule{Config: &sla.Config{}} }
	preMod := func() Module { return &PreemptModule{Preemption: &sla.Preemption{}} }
	cases := map[string]Config{
		"two sla modules": NewScenario(smallPlatform(), tasks(2, 1e11, 1),
			WithModules(slaMod(), slaMod())),
		"two preempt modules": NewScenario(smallPlatform(), tasks(2, 1e11, 1),
			WithModules(preMod(), preMod())),
		"two carbon modules": NewScenario(smallPlatform(), tasks(2, 1e11, 1),
			WithModules(&CarbonModule{Profile: constantProfile(300)}, &CarbonModule{Profile: constantProfile(300)})),
		"carbon module without profile": NewScenario(smallPlatform(), tasks(2, 1e11, 1),
			WithModules(&CarbonModule{})),
		"sla module without config": NewScenario(smallPlatform(), tasks(2, 1e11, 1),
			WithModules(&SLAModule{})),
		"preempt module without semantics": NewScenario(smallPlatform(), tasks(2, 1e11, 1),
			WithModules(&PreemptModule{})),
	}
	for name, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
