package experiments

import (
	"strings"
	"testing"
)

// TestSLAStudyAcceptance is the subsystem's acceptance check on the
// identical evening-mix scenario:
//
//  1. the SLA-aware run cuts the deadline-miss revenue loss of the
//     energy-only baseline at bounded extra energy, and
//  2. the SLA+carbon run respects both deadlines and candidacy
//     windows — forfeiting as little revenue while emitting far less
//     CO2 inside the declared makespan bound.
func TestSLAStudyAcceptance(t *testing.T) {
	cfg := DefaultSLAConfig()
	res, err := RunSLAStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	only, ok1 := res.Run(SLARunEnergyOnly)
	aware, ok2 := res.Run(SLARunAware)
	green, ok3 := res.Run(SLARunCarbon)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing runs: %+v", res.Runs)
	}

	lossOnly := only.SLA.ForfeitedUSD + only.SLA.PenaltyUSD
	lossAware := aware.SLA.ForfeitedUSD + aware.SLA.PenaltyUSD
	lossGreen := green.SLA.ForfeitedUSD + green.SLA.PenaltyUSD

	// (1a) The revenue-loss cut is decisive, not marginal.
	if lossAware >= 0.25*lossOnly {
		t.Errorf("SLA-aware loss $%.2f not measurably below energy-only $%.2f", lossAware, lossOnly)
	}
	if aware.SLA.EarnedUSD <= 2*only.SLA.EarnedUSD {
		t.Errorf("SLA-aware earned $%.2f, not decisively above energy-only $%.2f", aware.SLA.EarnedUSD, only.SLA.EarnedUSD)
	}
	// (1b) …at bounded extra energy.
	if aware.EnergyJ > 1.10*only.EnergyJ {
		t.Errorf("SLA-aware energy %.0f J exceeds the +10%% bound over %.0f J", aware.EnergyJ, only.EnergyJ)
	}
	// (1c) Admission control refuses exactly the hopeless tasks; the
	// blind baseline burns energy running them for nothing.
	if aware.Rejected != cfg.HopelessTasks || only.Rejected != 0 {
		t.Errorf("rejections: aware %d (want %d), energy-only %d (want 0)",
			aware.Rejected, cfg.HopelessTasks, only.Rejected)
	}

	// (2a) The carbon run keeps the SLA discipline: deadline misses
	// stay at SLA-aware levels, nowhere near the blind baseline's.
	if green.DeadlineMisses > aware.DeadlineMisses+2 {
		t.Errorf("SLA+carbon misses %d regress well past SLA-aware %d", green.DeadlineMisses, aware.DeadlineMisses)
	}
	if lossGreen >= 0.25*lossOnly {
		t.Errorf("SLA+carbon loss $%.2f not measurably below energy-only $%.2f", lossGreen, lossOnly)
	}
	// (2b) …while the candidacy windows shift the batch into clean
	// hours: a decisive CO2 cut on equal completed work.
	if green.CO2Grams >= 0.5*only.CO2Grams {
		t.Errorf("SLA+carbon CO2 %.0f g not measurably below energy-only %.0f g", green.CO2Grams, only.CO2Grams)
	}
	if green.GramsPerTask() >= 0.5*only.GramsPerTask() {
		t.Errorf("per-task CO2 %.2f g not measurably below %.2f g", green.GramsPerTask(), only.GramsPerTask())
	}
	// (2c) Deferral happened (the windows were respected, so the batch
	// waited) and stayed inside the declared bound.
	if green.Makespan <= only.Makespan {
		t.Errorf("SLA+carbon makespan %.0f s shows no deferral vs %.0f s", green.Makespan, only.Makespan)
	}
	if green.Makespan > cfg.MakespanBound() {
		t.Errorf("SLA+carbon makespan %.0f s exceeds bound %.0f s", green.Makespan, cfg.MakespanBound())
	}

	// The baseline actually hurts: without SLA machinery the backlog
	// forfeits a large share of the value at stake.
	if lossOnly < 50 {
		t.Errorf("energy-only loss $%.2f too small for a meaningful comparison", lossOnly)
	}
	// Per-class ledgers surface in the carbon run.
	if len(green.SLA.PerClass) < 3 {
		t.Errorf("per-class ledger incomplete: %+v", green.SLA.PerClass)
	}
}

func TestSLAStudyRender(t *testing.T) {
	cfg := DefaultSLAConfig()
	// Trim the scenario for render speed; the acceptance test covers
	// the full numbers.
	cfg.BatchTasks = 24
	cfg.DeadlineTasks = 6
	cfg.InteractiveTasks = 10
	cfg.HopelessTasks = 2
	res, err := RunSLAStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{SLARunEnergyOnly, SLARunAware, SLARunCarbon,
		"Earned", "Forfeited", "gCO2/task", "Per-class ledger", "interactive"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSLAConfigValidate(t *testing.T) {
	bad := DefaultSLAConfig()
	bad.BatchTasks = 0
	if _, err := RunSLAStudy(bad); err == nil {
		t.Error("zero batch accepted")
	}
	bad = DefaultSLAConfig()
	bad.AdmissionMargin = 0.5
	if _, err := RunSLAStudy(bad); err == nil {
		t.Error("sub-1 admission margin accepted")
	}
	bad = DefaultSLAConfig()
	bad.DeadlineSlackSec = 0
	if _, err := RunSLAStudy(bad); err == nil {
		t.Error("zero slack guard accepted")
	}
	bad = DefaultSLAConfig()
	bad.AmplitudeG = bad.MeanG * 2
	if _, err := RunSLAStudy(bad); err == nil {
		t.Error("invalid diurnal model accepted")
	}
}
