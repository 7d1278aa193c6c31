package experiments

import (
	"fmt"
	"io"

	"greensched/internal/analysis"
	"greensched/internal/cluster"
	"greensched/internal/core"
	"greensched/internal/forecast"
	"greensched/internal/provision"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

// RunPreferenceSweep is an extension experiment: it sweeps
// Preference_user across the Eq. 2 range and schedules the same
// workload with the Eq. 6 score policy at each point, tracing the
// performance↔efficiency frontier the paper's preference model spans
// (Eq. 7's limits become the curve's endpoints). Each run is named
// after its preference ("%+.2f"), from −0.90 to +0.90.
func RunPreferenceSweep(steps int, seed int64) (Runs, error) {
	if steps < 2 {
		return nil, fmt.Errorf("experiments: sweep needs at least 2 steps")
	}
	platform := cluster.PaperPlatform()
	// Load heavy enough that queues build on the preferred servers:
	// the Eq. 4 wait term then trades off against the Eq. 5 energy
	// term and the sweep traces a real frontier.
	tasks, err := workload.BurstThenRate{Total: 500, Burst: 100, Rate: 1.0, Ops: 9.0e11}.Tasks()
	if err != nil {
		return nil, err
	}
	vs := make([]variant, 0, steps)
	for i := 0; i < steps; i++ {
		p := -0.9 + 1.8*float64(i)/float64(steps-1)
		vs = append(vs, variant{name: fmt.Sprintf("%+.2f", p), cfg: sim.Config{
			Platform:    platform,
			Policy:      sched.ScorePolicy{Ops: 9.0e11, Pref: core.UserPref(p)},
			Tasks:       tasks,
			Explore:     true,
			RankAll:     true, // the score's wait term prices queueing
			QueueFactor: 4,
			Contention:  contention,
			Seed:        seed,
		}})
	}
	return runVariants("sweep", vs...)
}

// TariffResult summarizes the multi-day tariff-driven provisioning
// extension.
type TariffResult struct {
	Adaptive *AdaptiveResult
	// BaselineEnergyJ is the energy of the naive alternative: the
	// whole platform powered on and saturated for the same horizon.
	BaselineEnergyJ float64
	// Saving is 1 − adaptive/baseline.
	Saving float64
}

// RunTariffDays is an extension of §IV-C: instead of four hand-placed
// events, the provisioning plan is generated from a realistic daily
// electricity tariff (regular / off-peak-1 / off-peak-2, the paper's
// three states) over several days. The planner anticipates every
// price change through its lookahead, and the result quantifies what
// tariff-following provisioning saves against an always-on platform.
func RunTariffDays(days int, seed int64) (*TariffResult, error) {
	if days <= 0 {
		return nil, fmt.Errorf("experiments: need at least one day")
	}
	horizon := float64(days) * 86400
	store := provision.NewStore()
	recs, err := forecast.PaperTariff().PlanRecords(0, horizon, 22)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		store.Put(r)
	}
	res, err := RunAdaptive(AdaptiveConfig{
		Store:        store,
		TaskOps:      1.8e12,
		HorizonMin:   horizon / 60,
		SampleWindow: 3600, // hourly samples keep multi-day output readable
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	baseline := cluster.PaperPlatform().PeakWatts() * horizon
	return &TariffResult{
		Adaptive:        res,
		BaselineEnergyJ: baseline,
		Saving:          analysis.Gain(baseline, res.EnergyJ),
	}, nil
}

// RenderExtensions writes both extension studies.
func RenderExtensions(w io.Writer, seed int64) error {
	sweep, err := RunPreferenceSweep(7, seed)
	if err != nil {
		return err
	}
	t := sweep.table("Extension A. Eq. 6 preference sweep (score policy, 500 tasks)", colMakespanS,
		column{"Task energy (J)", func(r Run) string { return fmt.Sprintf("%.0f", r.TaskEnergyJ()) }},
		column{"Platform energy (J)", func(r Run) string { return fmt.Sprintf("%.0f", r.EnergyJ) }})
	t.Headers[0] = "Preference_user"
	if err := t.Render(w); err != nil {
		return err
	}

	tr, err := RunTariffDays(2, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nExtension B. Tariff-following provisioning over 2 days:\n")
	ts := Figure9(tr.Adaptive)
	ts.Title = ""
	if err := ts.Render(w); err != nil {
		return err
	}
	if _, err = fmt.Fprintf(w, "\nadaptive energy: %.1f MJ, always-on-saturated baseline: %.1f MJ, saving: %.1f%%\n",
		tr.Adaptive.EnergyJ/1e6, tr.BaselineEnergyJ/1e6, tr.Saving*100); err != nil {
		return err
	}

	bake, err := RunBaselineBakeoff(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := bake.Table().Render(w); err != nil {
		return err
	}

	het, err := RunHeterogeneitySweep(heterogeneitySweepConfig(seed), []float64{0.1, 0.25, 0.5, 0.75, 1.0})
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	return het.Render(w)
}

// BaselineBakeoff extends Table II with two extra orderings: GREENPERF
// (the paper's hybrid ratio, §IV-B) and LEASTLOADED (the classical
// energy-blind queue balancer of grid meta-schedulers, §II-B). It
// situates the paper's three policies against what a plain load
// balancer already achieves and what the hybrid metric buys.
type BaselineBakeoff struct {
	Runs // RANDOM, LEASTLOADED, PERFORMANCE, GREENPERF, POWER
}

// RunBaselineBakeoff executes the five policies on the calibrated
// Table II workload.
func RunBaselineBakeoff(seed int64) (*BaselineBakeoff, error) {
	cfg := DefaultPlacementConfig()
	cfg.Seed = seed
	vs, err := cfg.variants(cluster.PaperPlatform(),
		sched.Random, sched.LeastLoaded, sched.Performance, sched.GreenPerf, sched.Power)
	if err != nil {
		return nil, err
	}
	runs, err := runVariants("bakeoff", vs...)
	if err != nil {
		return nil, err
	}
	return &BaselineBakeoff{Runs: runs}, nil
}

// Table renders the five-policy comparison.
func (b *BaselineBakeoff) Table() *report.Table {
	t := b.table("Extension C. Five-policy bake-off on the Table II workload",
		colMakespanS, colEnergyJ, colMeanWait)
	t.Headers[0] = "Policy"
	return t
}
