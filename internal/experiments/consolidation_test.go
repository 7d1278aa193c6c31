package experiments

import (
	"bytes"
	"strings"
	"testing"

	"greensched/internal/consolidation"
	"greensched/internal/sched"
)

func fastConsolidation() ConsolidationConfig {
	cfg := DefaultConsolidationConfig()
	cfg.Tasks = 24
	cfg.GapSec = 1800
	return cfg
}

func TestConsolidationRunsAllConfigurations(t *testing.T) {
	res, err := RunConsolidation(fastConsolidation())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		string(sched.Random),
		string(sched.Power),
		consolidation.PolicyName,
		"CONSOLIDATION+GREENPERF",
	}
	if len(res.Runs) != len(want) {
		t.Fatalf("got %d runs, want %d", len(res.Runs), len(want))
	}
	for i, name := range want {
		if res.Runs[i].Name != name {
			t.Errorf("run %d = %s, want %s", i, res.Runs[i].Name, name)
		}
		if res.Runs[i].EnergyJ <= 0 || res.Runs[i].Makespan <= 0 {
			t.Errorf("%s: non-positive energy/makespan: %+v", name, res.Runs[i])
		}
	}
}

func TestConsolidationSavesEnergyOnIdleGap(t *testing.T) {
	// The fast scenario and the default one `greensched consolidation`
	// prints.
	for _, cfg := range []ConsolidationConfig{fastConsolidation(), DefaultConsolidationConfig()} {
		res, err := RunConsolidation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pw, _ := res.Run(string(sched.Power))
		rd, _ := res.Run(string(sched.Random))
		cons, _ := res.Run(consolidation.PolicyName)
		// The managed configuration must beat both always-on policies on
		// this under-utilized workload: the idle gap dominates the bill.
		if cons.EnergyJ >= pw.EnergyJ {
			t.Errorf("%d tasks: consolidation %.0f J not below always-on POWER %.0f J", cfg.Tasks, cons.EnergyJ, pw.EnergyJ)
		}
		if cons.EnergyJ >= rd.EnergyJ {
			t.Errorf("%d tasks: consolidation %.0f J not below always-on RANDOM %.0f J", cfg.Tasks, cons.EnergyJ, rd.EnergyJ)
		}
		if cons.Shutdowns == 0 {
			t.Errorf("%d tasks: managed run never shut a node down", cfg.Tasks)
		}
	}
}

func TestConsolidationGreenTieBreakNotWorse(t *testing.T) {
	res, err := RunConsolidation(fastConsolidation())
	if err != nil {
		t.Fatal(err)
	}
	cons, _ := res.Run(consolidation.PolicyName)
	green, _ := res.Run("CONSOLIDATION+GREENPERF")
	// Concentrating onto efficient nodes should not burn more energy
	// than name-ordered concentration; allow a small tolerance for
	// learning-phase noise.
	if green.EnergyJ > cons.EnergyJ*1.10 {
		t.Errorf("green tie-break %.0f J much worse than plain consolidation %.0f J",
			green.EnergyJ, cons.EnergyJ)
	}
}

func TestConsolidationRender(t *testing.T) {
	res, err := RunConsolidation(fastConsolidation())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CONSOLIDATION", "idle shutdown saving", "Boots"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
