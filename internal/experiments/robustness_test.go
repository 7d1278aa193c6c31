package experiments

import (
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/sched"
	"greensched/internal/sim"
)

// The §IV-A conclusions must be robust to realistic measurement and
// platform faults: the dynamic estimator consumes noisy, lossy
// wattmeter data, and nodes can die mid-run. These tests re-run the
// placement comparison under injected faults and assert the paper's
// orderings survive.

func TestPlacementRobustToMeterFaults(t *testing.T) {
	cfg := DefaultPlacementConfig()
	cfg.ReqsPerCore = 5 // keep the fault sweep quick
	res := placementWith(t, cfg, func(c *sim.Config) {
		c.MeterNoiseW = 20 // ±20 W on readings in the 100-500 W range
	})
	assertPaperOrdering(t, res, "meter noise")
}

// placementWith runs the §IV-A policies of cfg with fault applied to
// every built configuration.
func placementWith(t *testing.T, cfg PlacementConfig, fault func(*sim.Config)) Runs {
	t.Helper()
	vs, err := cfg.variants(cluster.PaperPlatform(), sched.Kinds()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		fault(&vs[i].cfg)
	}
	runs, err := runVariants("placement", vs...)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func assertPaperOrdering(t *testing.T, r Runs, label string) {
	t.Helper()
	pw := r.kind(sched.Power)
	pf := r.kind(sched.Performance)
	rd := r.kind(sched.Random)
	if !(pw.EnergyJ < rd.EnergyJ) {
		t.Errorf("%s: POWER energy %.0f not below RANDOM %.0f", label, pw.EnergyJ, rd.EnergyJ)
	}
	if !(pw.EnergyJ < pf.EnergyJ) {
		t.Errorf("%s: POWER energy %.0f not below PERFORMANCE %.0f", label, pw.EnergyJ, pf.EnergyJ)
	}
	if !(pf.Makespan <= pw.Makespan*1.02) {
		t.Errorf("%s: PERFORMANCE makespan %.0f not fastest (POWER %.0f)", label, pf.Makespan, pw.Makespan)
	}
	// Placement shapes survive.
	if pw.PerClusterTasks["taurus"] <= pw.PerClusterTasks["orion"] {
		t.Errorf("%s: POWER no longer taurus-dominant: %v", label, pw.PerClusterTasks)
	}
	if pf.PerClusterTasks["orion"] <= pf.PerClusterTasks["taurus"] {
		t.Errorf("%s: PERFORMANCE no longer orion-dominant: %v", label, pf.PerClusterTasks)
	}
}

func TestPlacementSeedStability(t *testing.T) {
	// The headline ratios must not be a single-seed fluke: across
	// seeds, POWER always beats RANDOM by ≥15% and PERFORMANCE by
	// ≥8%.
	for _, seed := range []int64{2, 3} {
		cfg := DefaultPlacementConfig()
		cfg.ReqsPerCore = 5
		cfg.Seed = seed
		res, err := RunPlacement(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gainRandom, gainPerf, _ := res.Headline()
		if gainRandom < 0.15 {
			t.Errorf("seed %d: gain vs RANDOM = %.1f%%", seed, gainRandom*100)
		}
		if gainPerf < 0.08 {
			t.Errorf("seed %d: gain vs PERFORMANCE = %.1f%%", seed, gainPerf*100)
		}
	}
}
