package experiments

import (
	"fmt"
	"io"

	"greensched/internal/cluster"
	"greensched/internal/provision"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sim"
)

// AdaptiveConfig parameterizes the §IV-C reactivity experiment
// (Figure 9): 260 minutes on the Table I platform, a client tracking
// the capacity of the candidate pool, and four injected events.
type AdaptiveConfig struct {
	TaskOps float64
	Seed    int64
	// HorizonMin is the experiment length in minutes (paper: 260).
	HorizonMin float64
}

// DefaultAdaptiveConfig returns the calibrated §IV-C setup.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{TaskOps: 1.8e12, Seed: 1, HorizonMin: 260}
}

// PaperEventTimeline builds the §IV-C provisioning plan:
//
//   - start: regular time (cost 1.0), in-range temperature
//   - Event 1 (scheduled):  cost 0.8 at t+60 min
//   - Event 2 (scheduled):  cost 0.5 at t+120 min
//   - Event 3 (unexpected): temperature rise just before t+160 min
//   - Event 4 (unexpected): temperature back in range before t+240 min
func PaperEventTimeline() *provision.Store {
	store := provision.NewStore()
	store.Put(provision.Record{Value: 0, Cost: 1.0, Temperature: 23})
	store.Put(provision.Record{Value: 60 * 60, Cost: 0.8, Temperature: 23})
	store.Put(provision.Record{Value: 120 * 60, Cost: 0.5, Temperature: 23})
	store.Put(provision.Record{Value: 160*60 - 50, Cost: 0.5, Temperature: 27, Unexpected: true})
	store.Put(provision.Record{Value: 240*60 - 50, Cost: 0.5, Temperature: 22, Unexpected: true})
	return store
}

// PaperPlanner builds the §IV-C planner: 12 nodes, 10-minute checks,
// 20-minute lookahead, progressive ramps, 2-node floor during heat
// events, starting from the regular-time pool of 4.
func PaperPlanner() *provision.Planner {
	p := provision.NewPlanner(12, 4)
	p.MinNodes = 2
	return p
}

// RunAdaptive executes the Figure 9 scenario.
func RunAdaptive(cfg AdaptiveConfig) (*sim.AdaptiveResult, error) {
	if cfg.HorizonMin <= 0 {
		cfg.HorizonMin = 260
	}
	return sim.RunAdaptive(sim.AdaptiveConfig{
		Platform: cluster.PaperPlatform(),
		Planner:  PaperPlanner(),
		Store:    PaperEventTimeline(),
		Policy:   sched.New(sched.GreenPerf),
		TaskOps:  cfg.TaskOps,
		Horizon:  cfg.HorizonMin * 60,
		Seed:     cfg.Seed,
	})
}

// Figure9 renders the candidates/power evolution.
func Figure9(res *sim.AdaptiveResult) *report.TimeSeries {
	ts := &report.TimeSeries{Title: "Figure 9. Evolution of candidate nodes and power consumption"}
	for _, s := range res.Samples {
		ts.Add(s.T, float64(s.Candidates), s.AvgW)
	}
	return ts
}

// Figure8 renders the provisioning-plan XML sample corresponding to
// the §IV-C timeline at a given timestamp.
func Figure8(store *provision.Store, at int64) (string, error) {
	rec, ok := store.At(at)
	if !ok {
		return "", fmt.Errorf("experiments: no plan record at %d", at)
	}
	plan := &provision.Plan{Records: []provision.Record{rec}}
	data, err := plan.MarshalIndent()
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// RenderAdaptive writes Figure 8 (plan sample) and Figure 9 (the
// time series of res, from RunAdaptive) plus the reactivity summary.
func RenderAdaptive(res *sim.AdaptiveResult, w io.Writer) error {
	sample, err := Figure8(PaperEventTimeline(), 60*60)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 8. Sample of the server status (provisioning plan record):\n%s\n\n", sample)
	if err := Figure9(res).Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"\ncompleted=%d tasks  energy=%.0f J  boots=%d  mean drain lag=%.0f s\n",
		res.Completed, res.EnergyJ, res.Boots, res.DrainLagS)
	return err
}
