package budget

import (
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/core"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

func budgetTasks(t *testing.T, n int) []workload.Task {
	t.Helper()
	tasks, err := workload.BurstThenRate{Total: n, Burst: 4, Rate: 0.05, Ops: 2e11}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// TestModuleChargesExactEnergyShares is the accounting invariant: the
// tracker's consumption equals the sum of every completed task's
// energy share, charge for charge.
func TestModuleChargesExactEnergyShares(t *testing.T) {
	tracker, err := NewTracker(1e9, 3600)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.NewScenario(
		cluster.MustPlatform(cluster.NewNodes("taurus", 2)),
		budgetTasks(t, 20),
		sim.WithSeed(3),
		sim.WithExplore(),
		sim.WithModules(&Module{Tracker: tracker}, &sim.RecordModule{}),
	))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, rec := range res.Records {
		sum += rec.EnergyShareJ
	}
	if sum <= 0 {
		t.Fatal("no energy attributed")
	}
	if got := tracker.Spent(); got != sum {
		t.Errorf("tracker spent %v J, records sum to %v J", got, sum)
	}
}

// TestModuleSteersOnlyWhenOverBudget: on/under pace the base policy
// passes through untouched; ahead of the burn-down the election is
// re-ranked by the steered score policy.
func TestModuleSteersOnlyWhenOverBudget(t *testing.T) {
	tracker, err := NewTracker(1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	m := &Module{Tracker: tracker, Steer: true, Base: core.PrefNone}
	base := sched.New(sched.GreenPerf)
	task := workload.Task{ID: 1, Ops: 1e11}

	if got := m.WrapPolicy(500, task, base); got != base {
		t.Error("under budget: base policy must pass through")
	}
	tracker.Charge(100, 900) // 90% spent at 10% of the horizon
	got := m.WrapPolicy(100, task, base)
	if got == base {
		t.Fatal("over budget: election must be re-ranked")
	}
	if _, ok := got.(*Policy); !ok {
		t.Fatalf("over budget wrap returned %T, want *budget.Policy", got)
	}

	unsteered := &Module{Tracker: tracker}
	if got := unsteered.WrapPolicy(100, task, base); got != base {
		t.Error("Steer off: policy must always pass through")
	}
}

func TestModuleInitNeedsTracker(t *testing.T) {
	if err := (&Module{}).Init(nil); err == nil {
		t.Error("nil tracker accepted")
	}
}
