package sim

import (
	"math"
	"testing"

	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/sched"
	"greensched/internal/workload"
)

func constantProfile(g float64) *carbon.Profile {
	return carbon.MustProfile(carbon.SiteProfile{Site: "grid", Signal: carbon.Constant{G: g}})
}

func carbonTasks(t *testing.T, n int, ops float64) []workload.Task {
	t.Helper()
	tasks, err := workload.BurstThenRate{Total: n, Burst: n, Ops: ops}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func TestCarbonAccountingMatchesEnergyOnConstantGrid(t *testing.T) {
	res, err := Run(Config{
		Platform: cluster.PaperPlatform(),
		Policy:   sched.New(sched.GreenPerf),
		Tasks:    carbonTasks(t, 24, 4.5e11),
		Explore:  true,
		Seed:     1,
		Modules:  []Module{&CarbonModule{Profile: constantProfile(300)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.EnergyJ / carbon.JoulesPerKWh * 300
	if math.Abs(res.CO2Grams-want) > 1e-6*want {
		t.Errorf("CO2 = %v g, want energy-consistent %v g", res.CO2Grams, want)
	}
	// Per-node grams must sum to the total and mirror the energy split.
	sum := 0.0
	for name, g := range res.PerNodeCO2G {
		sum += g
		wantNode := res.PerNodeEnergyJ[name] / carbon.JoulesPerKWh * 300
		if math.Abs(g-wantNode) > 1e-6*want {
			t.Errorf("node %s CO2 %v, want %v", name, g, wantNode)
		}
	}
	if math.Abs(sum-res.CO2Grams) > 1e-9*want {
		t.Errorf("per-node sum %v != total %v", sum, res.CO2Grams)
	}
	clusterSum := 0.0
	for _, g := range res.PerClusterCO2 {
		clusterSum += g
	}
	if math.Abs(clusterSum-res.CO2Grams) > 1e-9*want {
		t.Errorf("per-cluster sum %v != total %v", clusterSum, res.CO2Grams)
	}
}

func TestCarbonDisabledLeavesResultZero(t *testing.T) {
	res, err := Run(Config{
		Platform: cluster.PaperPlatform(),
		Policy:   sched.New(sched.GreenPerf),
		Tasks:    carbonTasks(t, 12, 4.5e11),
		Explore:  true,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CO2Grams != 0 || len(res.PerNodeCO2G) != 0 {
		t.Errorf("carbon accounting must stay zero without a profile: %v %v",
			res.CO2Grams, res.PerNodeCO2G)
	}
}

func TestCarbonPolicyShiftsWorkToCleanSite(t *testing.T) {
	// Two identical clusters on very different grids: the CARBON
	// policy must route the work to the clean one once estimates are
	// learned.
	platform := cluster.MustPlatform(cluster.NewNodes("taurus", 2), cluster.NewNodes("orion", 2))
	profile := carbon.MustProfile(carbon.SiteProfile{Site: "dirty", Signal: carbon.Constant{G: 600}})
	if err := profile.SetCluster("orion", carbon.SiteProfile{Site: "clean", Signal: carbon.Constant{G: 30}}); err != nil {
		t.Fatal(err)
	}
	// A trickle (not one burst) so the learning phase finishes early
	// and the policy ordering decides the bulk of the placements.
	tasks, err := workload.BurstThenRate{Total: 120, Burst: 4, Rate: 0.4, Ops: 4.5e11}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	run := func(kind sched.Kind) *Result {
		res, err := Run(Config{
			Platform: platform,
			Policy:   sched.New(kind),
			Tasks:    tasks,
			Explore:  true,
			Seed:     1,
			Modules:  []Module{&CarbonModule{Profile: profile}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aware := run(sched.Carbon)
	blind := run(sched.GreenPerf)
	// GreenPerf prefers taurus (leanest watts); CARBON must overrule
	// it because orion sits on a 20× cleaner grid.
	if aware.PerClusterTasks["orion"] <= aware.PerClusterTasks["taurus"] {
		t.Errorf("CARBON placed %d on clean orion vs %d on dirty taurus",
			aware.PerClusterTasks["orion"], aware.PerClusterTasks["taurus"])
	}
	if blind.PerClusterTasks["taurus"] <= blind.PerClusterTasks["orion"] {
		t.Errorf("GREENPERF baseline should prefer taurus, got %v", blind.PerClusterTasks)
	}
	if aware.CO2Grams >= blind.CO2Grams {
		t.Errorf("carbon-aware placement emitted %v g >= blind %v g", aware.CO2Grams, blind.CO2Grams)
	}
}

func TestCarbonDiurnalIntegrationIsTimeSensitive(t *testing.T) {
	// The same burst executed in a clean hour vs a dirty hour must
	// produce different grams from near-identical joules.
	d := carbon.Diurnal{MeanG: 300, AmplitudeG: 250, CleanHour: 13}
	profile := carbon.MustProfile(carbon.SiteProfile{Site: "solar", Signal: d})
	run := func(shift float64) *Result {
		res, err := Run(Config{
			Platform: cluster.MustPlatform(cluster.NewNodes("taurus", 2)),
			Policy:   sched.New(sched.GreenPerf),
			Tasks:    workload.Shift(carbonTasks(t, 24, 4.5e11), shift),
			Explore:  true,
			Seed:     1,
			Modules:  []Module{&CarbonModule{Profile: profile}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(13 * 3600) // burst at 13:00
	dirty := run(1 * 3600)  // burst at 01:00
	// Each run integrates the idle floor from t=0 to its own
	// makespan, so compare the *marginal* emissions above an
	// idle-only platform over the same horizon: the work itself must
	// cost far more grams in the dirty hour.
	taurus, _ := cluster.Spec("taurus")
	marginal := func(r *Result) float64 {
		idleJ := 2 * taurus.IdleW * r.Makespan
		return r.CO2Grams - idleJ/carbon.JoulesPerKWh*d.MeanIntensity(0, r.Makespan)
	}
	mClean, mDirty := marginal(clean), marginal(dirty)
	if mClean <= 0 || mDirty <= 0 {
		t.Fatalf("marginal grams must be positive: clean %v, dirty %v", mClean, mDirty)
	}
	if mClean >= mDirty/2 {
		t.Errorf("clean-hour marginal %v g not clearly below dirty-hour %v g", mClean, mDirty)
	}
}
