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

// PreferencePoint is one sample of the Eq. 6 trade-off curve.
type PreferencePoint struct {
	Pref     float64
	Makespan float64
	// EnergyJ is whole-platform energy over the makespan (includes
	// the idle floor of every node).
	EnergyJ float64
	// TaskEnergyJ is the Eq. 5-attributed energy: Σ measured mean
	// power × execution time over all tasks — the quantity the score
	// actually optimizes.
	TaskEnergyJ float64
}

// RunPreferenceSweep is an extension experiment: it sweeps
// Preference_user across the Eq. 2 range and schedules the same
// workload with the Eq. 6 score policy at each point, tracing the
// performance↔efficiency frontier the paper's preference model spans
// (Eq. 7's limits become the curve's endpoints).
func RunPreferenceSweep(steps int, seed int64) ([]PreferencePoint, error) {
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
	out := make([]PreferencePoint, 0, steps)
	for i := 0; i < steps; i++ {
		p := -0.9 + 1.8*float64(i)/float64(steps-1)
		res, err := sim.Run(sim.Config{
			Platform:    platform,
			Policy:      sched.ScorePolicy{Ops: 9.0e11, Pref: core.UserPref(p)},
			Tasks:       tasks,
			Explore:     true,
			RankAll:     true, // the score's wait term prices queueing
			QueueFactor: 4,
			Contention:  0.08,
			Seed:        seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep P=%.2f: %w", p, err)
		}
		taskEnergy := 0.0
		for _, rec := range res.Records {
			taskEnergy += rec.MeanPowerW * rec.Exec()
		}
		out = append(out, PreferencePoint{
			Pref:        p,
			Makespan:    res.Makespan,
			EnergyJ:     res.EnergyJ,
			TaskEnergyJ: taskEnergy,
		})
	}
	return out, nil
}

// TariffResult summarizes the multi-day tariff-driven provisioning
// extension.
type TariffResult struct {
	Adaptive *sim.AdaptiveResult
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
	planner := provision.NewPlanner(12, 4)
	planner.MinNodes = 2
	res, err := sim.RunAdaptive(sim.AdaptiveConfig{
		Platform:     cluster.PaperPlatform(),
		Planner:      planner,
		Store:        store,
		Policy:       sched.New(sched.GreenPerf),
		TaskOps:      1.8e12,
		Horizon:      horizon,
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
	t := &report.Table{
		Title:   "Extension A. Eq. 6 preference sweep (score policy, 500 tasks)",
		Headers: []string{"Preference_user", "Makespan (s)", "Task energy (J)", "Platform energy (J)"},
	}
	for _, p := range sweep {
		t.AddRow(fmt.Sprintf("%+.2f", p.Pref),
			fmt.Sprintf("%.0f", p.Makespan),
			fmt.Sprintf("%.0f", p.TaskEnergyJ),
			fmt.Sprintf("%.0f", p.EnergyJ))
	}
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

	hetCfg := DefaultHeterogeneityConfig()
	hetCfg.Seed = seed
	het, err := RunHeterogeneitySweep(hetCfg, []float64{0.1, 0.25, 0.5, 0.75, 1.0})
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
	Order []sched.Kind
	Runs  map[sched.Kind]*sim.Result
}

// RunBaselineBakeoff executes the five policies on the calibrated
// Table II workload.
func RunBaselineBakeoff(seed int64) (*BaselineBakeoff, error) {
	cfg := DefaultPlacementConfig()
	cfg.Seed = seed
	platform := cluster.PaperPlatform()
	total := workload.PerCore(platform.Cores(), cfg.ReqsPerCore)
	tasks, err := workload.BurstThenRate{
		Total: total, Burst: int(float64(total) * cfg.BurstFrac), Rate: cfg.Rate, Ops: cfg.TaskOps,
	}.Tasks()
	if err != nil {
		return nil, err
	}
	out := &BaselineBakeoff{
		Order: []sched.Kind{sched.Random, sched.LeastLoaded, sched.Performance, sched.GreenPerf, sched.Power},
		Runs:  make(map[sched.Kind]*sim.Result),
	}
	for _, kind := range out.Order {
		res, err := sim.Run(sim.Config{
			Platform:        platform,
			Policy:          sched.New(kind),
			Tasks:           tasks,
			Explore:         kind != sched.Random && kind != sched.LeastLoaded,
			Seed:            cfg.Seed,
			Contention:      cfg.Contention,
			ExecJitter:      cfg.ExecJitter,
			MeterNoiseW:     cfg.MeterNoise,
			EstimatorWindow: 32,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: bakeoff %s: %w", kind, err)
		}
		out.Runs[kind] = res
	}
	return out, nil
}

// Table renders the five-policy comparison.
func (b *BaselineBakeoff) Table() *report.Table {
	t := &report.Table{
		Title:   "Extension C. Five-policy bake-off on the Table II workload",
		Headers: []string{"Policy", "Makespan (s)", "Energy (J)", "Mean wait (s)"},
	}
	for _, kind := range b.Order {
		res := b.Runs[kind]
		t.AddRow(string(kind),
			fmt.Sprintf("%.0f", res.Makespan),
			fmt.Sprintf("%.0f", res.EnergyJ),
			fmt.Sprintf("%.1f", res.MeanWait()))
	}
	return t
}
