package experiments

import (
	"fmt"
	"io"
	"sort"

	"greensched/internal/analysis"
	"greensched/internal/carbon"
	"greensched/internal/consolidation"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

// CarbonConfig parameterizes the carbon-aware scheduling study: a
// multi-day scenario on the Table I platform where each cluster sits
// on its own grid (solar-diurnal vs fossil-heavy) and a deferrable
// batch burst arrives every evening — exactly when the solar grid is
// dirtiest. Three configurations run on the identical arrival
// schedule:
//
//	GREENPERF            always-on, carbon-blind (the paper's §IV-B policy)
//	GREENPERF+IDLE       carbon-blind with idle-shutdown consolidation
//	CARBON+WINDOWS       carbon-ranked placement plus candidacy windows
//	                     that defer the batch into clean periods
//
// The comparison makes the subsystem's claim measurable: equal work,
// equal platform, bounded extra makespan, fewer grams.
type CarbonConfig struct {
	Days       int     // scenario length in days (≥1)
	BurstTasks int     // deferrable tasks per 20:00 burst
	TaskOps    float64 // flops per task

	// Diurnal grid model for the solar site; the fossil site runs
	// flatter and dirtier.
	MeanG      float64 // solar-site daily mean, gCO2/kWh
	AmplitudeG float64 // solar-site swing
	CleanHour  float64 // solar-site cleanest hour

	CleanG      float64 // candidacy window opens at/below this
	DirtyG      float64 // idle capacity shed immediately at/above this
	IdleTimeout float64 // idle-shutdown grace, seconds
	MinOn       int     // nodes kept powered between windows
	TickSec     float64 // controller cadence
	MaxDeferSec float64 // deferral bound (makespan guarantee)

	Seed int64
}

// DefaultCarbonConfig returns the calibrated two-day scenario. The
// batch is deliberately heavy (≈33 min per task on a taurus core) so
// execution energy, not the platform's idle floor, carries the
// comparison; MinOn 0 lets the windowed controller keep the platform
// dark between clean periods.
func DefaultCarbonConfig() CarbonConfig {
	return CarbonConfig{
		Days:        2,
		BurstTasks:  120,
		TaskOps:     1.8e13, // ≈2000 s on a taurus core
		MeanG:       300,
		AmplitudeG:  250,
		CleanHour:   13,
		CleanG:      150,
		DirtyG:      450,
		IdleTimeout: 1200,
		MinOn:       0,
		TickSec:     300,
		MaxDeferSec: 24 * 3600,
		Seed:        1,
	}
}

// Validate reports configuration errors.
func (c CarbonConfig) Validate() error {
	switch {
	case c.Days < 1:
		return fmt.Errorf("experiments: carbon study needs at least one day")
	case c.BurstTasks < 1 || c.TaskOps <= 0:
		return fmt.Errorf("experiments: carbon study needs a positive burst workload")
	case c.MaxDeferSec <= 0:
		return fmt.Errorf("experiments: carbon study needs a positive defer bound")
	}
	return (carbon.Diurnal{MeanG: c.MeanG, AmplitudeG: c.AmplitudeG, CleanHour: c.CleanHour}).Validate()
}

// Profile builds the study's two-site grid: taurus and orion draw from
// a solar-diurnal grid, sagittaire from a flatter fossil-heavy one.
func (c CarbonConfig) Profile() *carbon.Profile {
	return twoSiteProfile(c.MeanG, c.AmplitudeG, c.CleanHour)
}

// twoSiteProfile is the grid the carbon-family studies share: taurus
// and orion on a solar-diurnal grid with the given shape, sagittaire on
// a flatter, dirtier fossil one.
func twoSiteProfile(meanG, amplitudeG, cleanHour float64) *carbon.Profile {
	solar := carbon.SiteProfile{Site: "solar-valley", Signal: carbon.Diurnal{
		MeanG: meanG, AmplitudeG: amplitudeG, CleanHour: cleanHour,
		RenewableMin: 0.05, RenewableMax: 0.8,
	}}
	fossil := carbon.SiteProfile{Site: "fossil-ridge", Signal: carbon.Diurnal{
		MeanG: meanG * 1.5, AmplitudeG: amplitudeG * 0.2, CleanHour: cleanHour,
		RenewableMin: 0.02, RenewableMax: 0.2,
	}}
	p := carbon.MustProfile(solar)
	if err := p.SetCluster("sagittaire", fossil); err != nil {
		panic(err)
	}
	return p
}

// Tasks materializes the arrival schedule: one deferrable burst at
// 20:00 of every scenario day.
func (c CarbonConfig) Tasks() ([]workload.Task, error) {
	var days [][]workload.Task
	for d := 0; d < c.Days; d++ {
		burst, err := workload.BurstThenRate{Total: c.BurstTasks, Burst: c.BurstTasks, Ops: c.TaskOps}.Tasks()
		if err != nil {
			return nil, err
		}
		days = append(days, workload.Shift(burst, float64(d)*carbon.DaySeconds+20*3600))
	}
	return workload.Merge(days...), nil
}

// MakespanBound is the guarantee the deferral bound implies: the last
// burst (day Days−1, 20:00) starts no later than MaxDeferSec after
// submission, plus a day of slack for draining on a partial platform.
func (c CarbonConfig) MakespanBound() float64 {
	return float64(c.Days-1)*carbon.DaySeconds + 20*3600 + c.MaxDeferSec + carbon.DaySeconds
}

// CarbonResult bundles the compared configurations.
type CarbonResult struct {
	Config CarbonConfig
	Runs   // fixed order: GREENPERF, GREENPERF+IDLE, CARBON+WINDOWS
	// PerSiteCO2 breaks the carbon-aware run's emissions down by site.
	PerSiteCO2 map[string]float64
}

// Names of the compared configurations.
const (
	CarbonRunAlwaysOn = "GREENPERF"
	CarbonRunIdle     = "GREENPERF+IDLE"
	CarbonRunAware    = "CARBON+WINDOWS"
)

// RunCarbonStudy executes the three configurations on the identical
// schedule, platform and grid profile.
func RunCarbonStudy(cfg CarbonConfig) (*CarbonResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	platform := slaPlatform()
	profile := cfg.Profile()
	tasks, err := cfg.Tasks()
	if err != nil {
		return nil, fmt.Errorf("experiments: carbon workload: %w", err)
	}

	// Each configuration is one module stack over the identical
	// platform and schedule; the carbon accounting module is common,
	// the controllers differ.
	alwaysOn := sim.NewScenario(platform, tasks,
		sim.WithPolicy(sched.New(sched.GreenPerf)),
		sim.WithExplore(),
		sim.WithSeed(cfg.Seed),
		sim.WithModules(&sim.CarbonModule{Profile: profile}),
	)

	idleCtl := &consolidation.Controller{IdleTimeout: cfg.IdleTimeout, MinOn: cfg.MinOn}
	if cfg.MinOn < 1 {
		idleCtl.MinOn = 1 // the blind controller requires a serving floor
	}
	idle := sim.NewScenario(platform, tasks,
		sim.WithPolicy(sched.New(sched.GreenPerf)),
		sim.WithExplore(),
		sim.WithSeed(cfg.Seed),
		sim.WithTick(cfg.TickSec),
		sim.WithModules(
			&sim.CarbonModule{Profile: profile},
			&consolidation.Module{Controller: idleCtl},
		),
	)

	awareCtl := &consolidation.CarbonController{
		Profile:     profile,
		CleanG:      cfg.CleanG,
		DirtyG:      cfg.DirtyG,
		IdleTimeout: cfg.IdleTimeout,
		MinOn:       cfg.MinOn,
		MaxDeferSec: cfg.MaxDeferSec,
	}
	aware := sim.NewScenario(platform, tasks,
		sim.WithPolicy(sched.New(sched.Carbon)),
		sim.WithExplore(),
		sim.WithSeed(cfg.Seed),
		sim.WithTick(cfg.TickSec),
		sim.WithRetryEvery(60),
		sim.WithModules(
			&sim.CarbonModule{Profile: profile},
			&consolidation.Module{Controller: awareCtl},
		),
	)

	runs, err := runVariants("carbon",
		variant{name: CarbonRunAlwaysOn, cfg: alwaysOn},
		variant{name: CarbonRunIdle, cfg: idle},
		variant{name: CarbonRunAware, cfg: aware},
	)
	if err != nil {
		return nil, err
	}
	out := &CarbonResult{Config: cfg, Runs: runs, PerSiteCO2: make(map[string]float64)}
	awareRun, _ := runs.Run(CarbonRunAware)
	for clusterName, g := range awareRun.PerClusterCO2 {
		out.PerSiteCO2[profile.Site(clusterName).Site] += g
	}
	return out, nil
}

// Table renders the comparison.
func (r *CarbonResult) Table() *report.Table {
	return r.Runs.table(fmt.Sprintf("Carbon-aware scheduling over %d day(s): %d deferrable tasks per 20:00 burst",
		r.Config.Days, r.Config.BurstTasks),
		colEnergyMJ, colCO2, colMakespanH,
		column{"Mean wait (h)", func(r Run) string { return fmt.Sprintf("%.2f", r.MeanWait()/3600) }},
		colBoots, colShutdowns)
}

// Render writes the table plus the headline savings.
func (r *CarbonResult) Render(w io.Writer) error {
	if err := r.Table().Render(w); err != nil {
		return err
	}
	aware, ok1 := r.Run(CarbonRunAware)
	idle, ok2 := r.Run(CarbonRunIdle)
	always, ok3 := r.Run(CarbonRunAlwaysOn)
	if ok1 && ok2 && ok3 {
		fmt.Fprintf(w, "\nCO2 saving of %s: %.1f%% vs %s, %.1f%% vs %s (makespan bound %.1f h, actual %.1f h)\n",
			CarbonRunAware,
			analysis.Gain(idle.CO2Grams, aware.CO2Grams)*100, CarbonRunIdle,
			analysis.Gain(always.CO2Grams, aware.CO2Grams)*100, CarbonRunAlwaysOn,
			r.Config.MakespanBound()/3600, aware.Makespan/3600)
	}
	if len(r.PerSiteCO2) > 0 {
		fmt.Fprintf(w, "%s per-site CO2:", CarbonRunAware)
		for _, site := range sortedKeys(r.PerSiteCO2) {
			fmt.Fprintf(w, "  %s %.0f g", site, r.PerSiteCO2[site])
		}
		fmt.Fprintln(w)
	}
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%s per task: %s\n", run.Name, report.PerTask(run.JoulesPerTask(), run.GramsPerTask()))
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
