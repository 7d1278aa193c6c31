package experiments

import (
	"strings"
	"testing"
)

// TestCarbonStudyAwareBeatsBlind is the subsystem's acceptance check:
// on the identical multi-day diurnal scenario, carbon-aware scheduling
// must emit measurably less CO2 than both carbon-blind baselines while
// staying inside the declared makespan bound.
func TestCarbonStudyAwareBeatsBlind(t *testing.T) {
	cfg := DefaultCarbonConfig()
	res, err := RunCarbonStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aware, ok1 := res.Run(CarbonRunAware)
	idle, ok2 := res.Run(CarbonRunIdle)
	always, ok3 := res.Run(CarbonRunAlwaysOn)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing runs: %+v", res.Runs)
	}
	// Measurably lower: at least 20% below the consolidation baseline,
	// not a rounding artifact.
	if aware.CO2Grams >= idle.CO2Grams*0.8 {
		t.Errorf("aware %.0f g not measurably below idle-shutdown %.0f g", aware.CO2Grams, idle.CO2Grams)
	}
	if aware.CO2Grams >= always.CO2Grams {
		t.Errorf("aware %.0f g not below always-on %.0f g", aware.CO2Grams, always.CO2Grams)
	}
	// Bounded makespan: the deferral bound is honoured.
	if aware.Makespan > cfg.MakespanBound() {
		t.Errorf("aware makespan %.0f s exceeds bound %.0f s", aware.Makespan, cfg.MakespanBound())
	}
	// The blind baselines should not have been slowed by deferral.
	if idle.MeanWait() > aware.MeanWait() {
		t.Errorf("blind idle run waits longer (%.0f s) than the deferring run (%.0f s)?",
			idle.MeanWait(), aware.MeanWait())
	}
	// Per-site breakdown covers both grids of the profile.
	if len(res.PerSiteCO2) != 2 {
		t.Errorf("per-site breakdown %v, want solar-valley and fossil-ridge", res.PerSiteCO2)
	}
}

func TestCarbonStudyRender(t *testing.T) {
	cfg := DefaultCarbonConfig()
	cfg.Days = 1
	cfg.BurstTasks = 24
	res, err := RunCarbonStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{CarbonRunAlwaysOn, CarbonRunIdle, CarbonRunAware, "CO2 saving", "per-site CO2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCarbonConfigValidate(t *testing.T) {
	bad := DefaultCarbonConfig()
	bad.Days = 0
	if _, err := RunCarbonStudy(bad); err == nil {
		t.Error("zero days must be rejected")
	}
	bad = DefaultCarbonConfig()
	bad.AmplitudeG = bad.MeanG * 2
	if _, err := RunCarbonStudy(bad); err == nil {
		t.Error("invalid diurnal model must be rejected")
	}
}
