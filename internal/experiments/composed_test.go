package experiments

import (
	"strings"
	"testing"
)

// TestComposedStudyAcceptance is the module stack's acceptance check:
// carbon accounting, the full SLA machinery, checkpoint/restart
// preemption, the carbon-window controller and the budget tracker run
// as ONE stack, and every subsystem's own invariant still holds in the
// composition.
func TestComposedStudyAcceptance(t *testing.T) {
	cfg := DefaultComposedConfig()
	res, err := RunComposedStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blind, ok1 := res.Run(ComposedRunBlind)
	full, ok2 := res.Run(ComposedRunFull)
	if !ok1 || !ok2 {
		t.Fatalf("missing runs: %+v", res.Runs)
	}

	// Preemption engaged — and never at a victim's expense: zero
	// completions that were displaced and then missed their own
	// deadline.
	if full.Preemptions == 0 {
		t.Error("composed run never preempted; the scenario lost its collision")
	}
	if full.VictimMisses() != 0 {
		t.Errorf("composed run broke %d victim deadlines; want 0", full.VictimMisses())
	}
	if full.PreemptRedoneOps <= 0 {
		t.Error("restart penalty redid no work despite preemptions")
	}

	// Carbon windows worked under the full stack: a decisive CO2 cut
	// below the carbon-blind baseline.
	if full.CO2Grams >= 0.8*blind.CO2Grams {
		t.Errorf("composed CO2 %.0f g not measurably below carbon-blind %.0f g", full.CO2Grams, blind.CO2Grams)
	}
	if full.Makespan > cfg.SLA.MakespanBound() {
		t.Errorf("composed makespan %.0f s exceeds bound %.0f s", full.Makespan, cfg.SLA.MakespanBound())
	}

	// Budget metering is exact: the tracker's charges equal the sum of
	// per-task energy shares, charge for charge (same addition order),
	// and stayed inside the configured budget.
	if full.BudgetSpentJ <= 0 {
		t.Error("budget tracker metered nothing")
	}
	if full.BudgetSpentJ != full.TaskShareJ() {
		t.Errorf("budget charges %.6f J diverge from task energy shares %.6f J",
			full.BudgetSpentJ, full.TaskShareJ())
	}
	if full.BudgetSpentJ > cfg.BudgetJ {
		t.Errorf("run burned %.0f J against a %.0f J budget", full.BudgetSpentJ, cfg.BudgetJ)
	}

	// The SLA machinery held inside the composition: admission refused
	// exactly the hopeless tasks, deadline outcomes beat the blind
	// baseline decisively, and the stack earned more net dollars.
	if full.Rejected != cfg.SLA.HopelessTasks || blind.Rejected != 0 {
		t.Errorf("rejections: composed %d (want %d), blind %d (want 0)",
			full.Rejected, cfg.SLA.HopelessTasks, blind.Rejected)
	}
	if full.DeadlineMisses*2 >= blind.DeadlineMisses {
		t.Errorf("composed misses %d not well below blind %d", full.DeadlineMisses, blind.DeadlineMisses)
	}
	if full.NetUSD() <= blind.NetUSD() {
		t.Errorf("composed net $%.2f not above blind $%.2f", full.NetUSD(), blind.NetUSD())
	}
}

func TestComposedStudyRender(t *testing.T) {
	res, err := RunComposedStudy(DefaultComposedConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{ComposedRunBlind, ComposedRunFull,
		"Victim misses", "Budget", "stacks carbon + SLA + preemption + budget", "metered"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestComposedConfigValidate(t *testing.T) {
	bad := DefaultComposedConfig()
	bad.InteractiveRelSec = 0
	if _, err := RunComposedStudy(bad); err == nil {
		t.Error("zero interactive deadline accepted")
	}
	bad = DefaultComposedConfig()
	bad.BudgetJ = 0
	if _, err := RunComposedStudy(bad); err == nil {
		t.Error("zero budget accepted")
	}
	bad = DefaultComposedConfig()
	bad.RestartPenaltyFrac = 2
	if _, err := RunComposedStudy(bad); err == nil {
		t.Error("restart penalty above 1 accepted")
	}
	bad = DefaultComposedConfig()
	bad.SLA.BatchTasks = 0
	if _, err := RunComposedStudy(bad); err == nil {
		t.Error("invalid underlying SLA scenario accepted")
	}
}
