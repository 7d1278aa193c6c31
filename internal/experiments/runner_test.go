package experiments

import (
	"reflect"
	"testing"
)

// TestComparisonStudiesDeterministic: every comparison study replays
// identically for a fixed seed — the whole sim.Result of every run,
// per-task records included, not just the figures its table prints.
func TestComparisonStudiesDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs func() (Runs, error)
	}{
		{"consolidation", func() (Runs, error) {
			res, err := RunConsolidation(fastConsolidation())
			if err != nil {
				return nil, err
			}
			return res.Runs, nil
		}},
		{"carbon", func() (Runs, error) {
			cfg := DefaultCarbonConfig()
			cfg.Days, cfg.BurstTasks = 1, 24
			res, err := RunCarbonStudy(cfg)
			if err != nil {
				return nil, err
			}
			return res.Runs, nil
		}},
		{"sla", func() (Runs, error) {
			cfg := DefaultSLAConfig()
			cfg.BatchTasks, cfg.DeadlineTasks, cfg.InteractiveTasks, cfg.HopelessTasks = 24, 6, 10, 2
			res, err := RunSLAStudy(cfg)
			if err != nil {
				return nil, err
			}
			return res.Runs, nil
		}},
		{"preempt", func() (Runs, error) {
			res, err := RunPreemptionStudy(DefaultPreemptionConfig())
			if err != nil {
				return nil, err
			}
			return res.Runs, nil
		}},
		{"composed", func() (Runs, error) {
			cfg := DefaultComposedConfig()
			cfg.ScaleTasks(60)
			res, err := RunComposedStudy(cfg)
			if err != nil {
				return nil, err
			}
			return res.Runs, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.runs()
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.runs()
			if err != nil {
				t.Fatal(err)
			}
			if len(a) < 2 {
				t.Fatalf("got %d runs, want a comparison", len(a))
			}
			for i := range a {
				if len(a[i].Records) == 0 {
					t.Errorf("%s: no task records", a[i].Name)
				}
				if !reflect.DeepEqual(a[i], b[i]) {
					t.Errorf("%s not deterministic", a[i].Name)
				}
			}
		})
	}
}
