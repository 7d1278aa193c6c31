package experiments

import (
	"strings"
	"testing"
)

// TestPreemptionStudyAcceptance is the tentpole's acceptance check on
// the identical saturated scenario: the preemption-enabled run must
// earn strictly more net revenue than the express-boot-only baseline
// at no more energy, without breaking a single victim's deadline.
func TestPreemptionStudyAcceptance(t *testing.T) {
	cfg := DefaultPreemptionConfig()
	res, err := RunPreemptionStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot, ok1 := res.Run(PreemptRunExpressBoot)
	pre, ok2 := res.Run(PreemptRunPreemption)
	if !ok1 || !ok2 {
		t.Fatalf("missing runs: %+v", res.Runs)
	}

	// The headline: strictly more net dollars at no more energy.
	if pre.NetUSD() <= boot.NetUSD() {
		t.Errorf("preemption net $%.2f not strictly above express-boot $%.2f",
			pre.NetUSD(), boot.NetUSD())
	}
	if pre.EnergyJ > boot.EnergyJ {
		t.Errorf("preemption energy %.0f J exceeds express-boot %.0f J", pre.EnergyJ, boot.EnergyJ)
	}
	// Preemption must actually have happened, and never at a victim's
	// expense.
	if pre.Preemptions == 0 {
		t.Error("preemption run never preempted")
	}
	if pre.VictimMisses() != 0 || boot.VictimMisses() != 0 {
		t.Errorf("victim deadline breaches: preemption %d, baseline %d; want 0",
			pre.VictimMisses(), boot.VictimMisses())
	}
	// The baseline's failure mode is real: express boots fire yet
	// deadlines still slip — queued work cannot migrate to the fresh
	// node.
	if boot.Boots == 0 {
		t.Error("baseline never express-booted; the scenario lost its contrast")
	}
	if boot.DeadlineMisses == 0 {
		t.Error("baseline missed nothing; the scenario lost its contrast")
	}
	if pre.DeadlineMisses >= boot.DeadlineMisses {
		t.Errorf("preemption misses %d not below baseline %d", pre.DeadlineMisses, boot.DeadlineMisses)
	}
	// Checkpoints are not free: the restart penalty redid some work.
	if pre.PreemptRedoneOps <= 0 {
		t.Error("restart penalty redid no work despite preemptions")
	}
}

// TestPreemptionStudyPerfectCheckpoint: with a zero restart penalty no
// work is redone, and the revenue claim still holds.
func TestPreemptionStudyPerfectCheckpoint(t *testing.T) {
	cfg := DefaultPreemptionConfig()
	cfg.RestartPenaltyFrac = 0
	res, err := RunPreemptionStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot, _ := res.Run(PreemptRunExpressBoot)
	pre, _ := res.Run(PreemptRunPreemption)
	if pre.PreemptRedoneOps != 0 {
		t.Errorf("perfect checkpoint redid %v ops", pre.PreemptRedoneOps)
	}
	if pre.NetUSD() <= boot.NetUSD() || pre.EnergyJ > boot.EnergyJ {
		t.Errorf("perfect checkpoint lost the claim: net $%.2f vs $%.2f, energy %.0f vs %.0f J",
			pre.NetUSD(), boot.NetUSD(), pre.EnergyJ, boot.EnergyJ)
	}
}

func TestPreemptionStudyRender(t *testing.T) {
	res, err := RunPreemptionStudy(DefaultPreemptionConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{PreemptRunExpressBoot, PreemptRunPreemption,
		"Victim misses", "Preempts", "recovers"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPreemptionConfigValidate(t *testing.T) {
	bad := DefaultPreemptionConfig()
	bad.MinOn = bad.Nodes
	if _, err := RunPreemptionStudy(bad); err == nil {
		t.Error("MinOn leaving no dark node accepted")
	}
	bad = DefaultPreemptionConfig()
	bad.BatchTasks = 0
	if _, err := RunPreemptionStudy(bad); err == nil {
		t.Error("zero batch accepted")
	}
	bad = DefaultPreemptionConfig()
	bad.RestartPenaltyFrac = 1.5
	if _, err := RunPreemptionStudy(bad); err == nil {
		t.Error("restart penalty above 1 accepted")
	}
	bad = DefaultPreemptionConfig()
	bad.DeadlineSlackSec = 0
	if _, err := RunPreemptionStudy(bad); err == nil {
		t.Error("zero slack guard accepted")
	}
}
