package experiments

import (
	"bytes"
	"strings"
	"testing"

	"greensched/internal/sched"
)

func TestPreferenceSweepFrontier(t *testing.T) {
	sweep, err := RunPreferenceSweep(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 5 {
		t.Fatalf("points = %d", len(sweep))
	}
	if sweep[0].Name != "-0.90" || sweep[len(sweep)-1].Name != "+0.90" {
		t.Fatalf("sweep range wrong: %v..%v", sweep[0].Name, sweep[len(sweep)-1].Name)
	}
	first, last := sweep[0], sweep[len(sweep)-1]
	// Eq. 7's limits: the performance end must be at least as fast,
	// the efficiency end leaner in the Eq. 5-attributed task energy
	// (whole-platform energy also pays the idle floor over the longer
	// makespan, so the per-task attribution is the score's target).
	if last.Makespan < first.Makespan {
		t.Errorf("P=+0.9 makespan %.0f faster than P=-0.9 %.0f", last.Makespan, first.Makespan)
	}
	if last.TaskEnergyJ() > first.TaskEnergyJ() {
		t.Errorf("P=+0.9 task energy %.0f above P=-0.9 %.0f", last.TaskEnergyJ(), first.TaskEnergyJ())
	}
	// The frontier actually moves (the knob does something).
	if first.TaskEnergyJ() == last.TaskEnergyJ() && first.Makespan == last.Makespan {
		t.Error("preference sweep is flat")
	}
	if _, err := RunPreferenceSweep(1, 1); err == nil {
		t.Fatal("single-step sweep accepted")
	}
}

func TestTariffDaysProvisioningSaves(t *testing.T) {
	res, err := RunTariffDays(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive.Completed == 0 {
		t.Fatal("no work done")
	}
	// Tariff-following provisioning must beat the always-on-saturated
	// baseline by a wide margin.
	if res.Saving < 0.2 {
		t.Fatalf("saving = %.1f%%, want ≥20%%", res.Saving*100)
	}
	// The pool must visibly follow the tariff: hold the full platform
	// during off-peak-2 (02-08h) and shrink during regular hours.
	var offPeakMax, regularMin = 0, 99
	for _, s := range res.Adaptive.Samples {
		hour := s.T / 3600
		if hour > 4 && hour <= 7 { // deep off-peak, after ramp
			if s.Candidates > offPeakMax {
				offPeakMax = s.Candidates
			}
		}
		if hour > 12 && hour <= 20 { // regular tariff, after drain
			if s.Candidates < regularMin {
				regularMin = s.Candidates
			}
		}
	}
	if offPeakMax != 12 {
		t.Errorf("off-peak pool max = %d, want full platform", offPeakMax)
	}
	if regularMin > 4 {
		t.Errorf("regular-hours pool min = %d, want ≤4", regularMin)
	}
	if _, err := RunTariffDays(0, 1); err == nil {
		t.Fatal("zero days accepted")
	}
}

func TestRenderExtensions(t *testing.T) {
	var b strings.Builder
	if err := RenderExtensions(&b, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Extension A.", "Preference_user", "+0.90", "-0.90",
		"Extension B.", "always-on-saturated baseline", "saving:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("extensions report missing %q", want)
		}
	}
}

func TestBaselineBakeoffShape(t *testing.T) {
	bake, err := RunBaselineBakeoff(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bake.Runs) != 5 {
		t.Fatalf("got %d runs, want 5", len(bake.Runs))
	}
	pw := bake.kind(sched.Power)
	ll := bake.kind(sched.LeastLoaded)
	gp := bake.kind(sched.GreenPerf)
	rd := bake.kind(sched.Random)
	// The energy-blind queue balancer must not beat the energy-aware
	// policies on energy; POWER bounds the energy side.
	if pw.EnergyJ >= ll.EnergyJ {
		t.Errorf("POWER energy %.0f not below LEASTLOADED %.0f", pw.EnergyJ, ll.EnergyJ)
	}
	if gp.EnergyJ >= rd.EnergyJ {
		t.Errorf("GREENPERF energy %.0f not below RANDOM %.0f", gp.EnergyJ, rd.EnergyJ)
	}
	// Every policy completes the same task count in the same regime.
	for _, res := range bake.Runs {
		if res.Makespan < 1500 || res.Makespan > 3500 {
			t.Errorf("%s makespan %.0f outside the §IV-A regime", res.Name, res.Makespan)
		}
	}
}

func TestBaselineBakeoffTable(t *testing.T) {
	bake, err := RunBaselineBakeoff(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bake.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Policy", "LEASTLOADED", "GREENPERF", "RANDOM"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("bakeoff table missing %q", want)
		}
	}
}
