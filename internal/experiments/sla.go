package experiments

import (
	"fmt"
	"io"

	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/consolidation"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// SLAConfig parameterizes the deadline/value-aware scheduling study:
// an evening mix of heavy deferrable batch work, mid-value tasks with
// hard one-shot deadlines (a few provably hopeless), and a high-value
// interactive stream lands on the trimmed Table I platform at the
// dirtiest hour of the solar grid. Three configurations run on the
// identical schedule:
//
//	ENERGY-ONLY   GreenPerf + idle shutdown, FIFO queues, admits
//	              everything — the PR-1 state of the art, SLA-blind
//	SLA-AWARE     deadline-aware placement, EDF queues, admission
//	              control, shutdowns guarded by pending deadline slack
//	SLA+CARBON    the same plus carbon candidacy windows that defer
//	              the batch into the clean window while deadline
//	              traffic rides the SLA express lane
//
// The comparison makes the subsystem's claim measurable: equal work,
// equal platform, bounded extra energy, far less revenue forfeited —
// and, with carbon windows on top, fewer grams too.
type SLAConfig struct {
	StartHour float64 // when the evening mix begins (solar-dirty hour)

	BatchTasks int     // deferrable batch tasks bursting at StartHour
	BatchOps   float64 // flops per batch task

	DeadlineTasks  int     // hard-deadline tasks, one every DeadlineEverySec
	DeadlineOps    float64 // flops per deadline task
	DeadlineRelSec float64 // completion deadline after submission
	DeadlineEvery  float64 // arrival period, seconds

	HopelessTasks  int     // deadline tasks no node can serve in time
	HopelessRelSec float64 // their (unmeetable) relative deadline

	InteractiveTasks  int     // high-value interactive stream
	InteractiveOps    float64 // flops per interactive task
	InteractiveRelSec float64 // completion deadline after submission
	InteractiveEvery  float64 // arrival period, seconds

	SlotsPerNode int // concurrency cap per node (pressure knob)

	// Solar-site diurnal grid (the fossil site runs flatter and
	// dirtier, as in the carbon study).
	MeanG      float64
	AmplitudeG float64
	CleanHour  float64

	CleanG           float64 // candidacy window opens at/below this
	DirtyG           float64 // idle capacity shed immediately at/above
	IdleTimeout      float64 // idle-shutdown grace, seconds
	MinOn            int     // nodes kept powered between windows
	TickSec          float64 // controller cadence
	MaxDeferSec      float64 // deferral bound (makespan guarantee)
	DeadlineSlackSec float64 // controllers' SLA guard margin

	AdmissionMargin float64 // admission safety factor (≥1)

	Seed int64
}

// DefaultSLAConfig returns the calibrated one-evening scenario. The
// 18:00 batch burst (240 tasks of ≈400 s each against 12 slots) keeps
// every queue saturated for over two hours — the sustained backlog
// under which FIFO sacrifices the deadline and interactive streams
// that EDF and deadline-aware placement protect, because slots churn
// every few hundred seconds and the disciplines decide who gets them.
func DefaultSLAConfig() SLAConfig {
	return SLAConfig{
		StartHour: 18,

		BatchTasks: 240,
		BatchOps:   3.6e12, // ≈400 s on a taurus core

		DeadlineTasks:  24,
		DeadlineOps:    2.7e12, // ≈300 s on a taurus core
		DeadlineRelSec: 1800,
		DeadlineEvery:  600,

		HopelessTasks:  6,
		HopelessRelSec: 120, // < best-case execution anywhere

		InteractiveTasks:  60,
		InteractiveOps:    9e10, // ≈10 s on a taurus core
		InteractiveRelSec: 600,
		InteractiveEvery:  120,

		SlotsPerNode: 2,

		MeanG:      300,
		AmplitudeG: 250,
		CleanHour:  13,

		CleanG:           150,
		DirtyG:           450,
		IdleTimeout:      1200,
		MinOn:            0, // carbon run: fully dark between windows
		TickSec:          300,
		MaxDeferSec:      20 * 3600,
		DeadlineSlackSec: 450,

		AdmissionMargin: 1,

		Seed: 1,
	}
}

// Validate reports configuration errors.
func (c SLAConfig) Validate() error {
	switch {
	case c.BatchTasks < 1 || c.BatchOps <= 0:
		return fmt.Errorf("experiments: sla study needs a positive batch workload")
	case c.DeadlineTasks < 1 || c.DeadlineOps <= 0 || c.DeadlineRelSec <= 0 || c.DeadlineEvery <= 0:
		return fmt.Errorf("experiments: sla study needs a positive deadline stream")
	case c.InteractiveTasks < 1 || c.InteractiveOps <= 0 || c.InteractiveRelSec <= 0 || c.InteractiveEvery <= 0:
		return fmt.Errorf("experiments: sla study needs a positive interactive stream")
	case c.HopelessTasks < 0 || (c.HopelessTasks > 0 && c.HopelessRelSec <= 0):
		return fmt.Errorf("experiments: sla study hopeless stream misconfigured")
	case c.MaxDeferSec <= 0 || c.DeadlineSlackSec <= 0:
		return fmt.Errorf("experiments: sla study needs positive defer bound and slack guard")
	case c.AdmissionMargin < 1:
		return fmt.Errorf("experiments: admission margin %v must be at least 1", c.AdmissionMargin)
	}
	return (carbon.Diurnal{MeanG: c.MeanG, AmplitudeG: c.AmplitudeG, CleanHour: c.CleanHour}).Validate()
}

// Profile builds the two-site grid, identical to the carbon study's:
// taurus and orion on the solar-diurnal grid, sagittaire fossil.
func (c SLAConfig) Profile() *carbon.Profile {
	return twoSiteProfile(c.MeanG, c.AmplitudeG, c.CleanHour)
}

// Tasks materializes the identical arrival schedule all three
// configurations replay.
func (c SLAConfig) Tasks() ([]workload.Task, error) {
	batch, err := workload.BurstThenRate{
		Total: c.BatchTasks, Burst: c.BatchTasks, Ops: c.BatchOps,
		Class: sla.ClassBatch,
	}.Tasks()
	if err != nil {
		return nil, err
	}
	deadline, err := workload.BurstThenRate{
		Total: c.DeadlineTasks, Burst: 0, Rate: 1 / c.DeadlineEvery,
		Ops: c.DeadlineOps, Class: sla.ClassDeadline, RelDeadline: c.DeadlineRelSec,
	}.Tasks()
	if err != nil {
		return nil, err
	}
	interactive, err := workload.BurstThenRate{
		Total: c.InteractiveTasks, Burst: 0, Rate: 1 / c.InteractiveEvery,
		Ops: c.InteractiveOps, Class: sla.ClassInteractive, RelDeadline: c.InteractiveRelSec,
	}.Tasks()
	if err != nil {
		return nil, err
	}
	streams := [][]workload.Task{batch, deadline, interactive}
	if c.HopelessTasks > 0 {
		hopeless, err := workload.BurstThenRate{
			Total: c.HopelessTasks, Burst: c.HopelessTasks,
			Ops: c.DeadlineOps, Class: sla.ClassDeadline, RelDeadline: c.HopelessRelSec,
		}.Tasks()
		if err != nil {
			return nil, err
		}
		streams = append(streams, hopeless)
	}
	at := c.StartHour * 3600
	for i, s := range streams {
		streams[i] = workload.Shift(s, at)
	}
	return workload.Merge(streams...), nil
}

// MakespanBound is the guarantee the deferral bound implies for the
// SLA+CARBON run: the batch starts no later than MaxDeferSec after its
// StartHour submission, plus a day of slack for draining.
func (c SLAConfig) MakespanBound() float64 {
	return c.StartHour*3600 + c.MaxDeferSec + carbon.DaySeconds
}

// SLAResult bundles the compared configurations.
type SLAResult struct {
	Config SLAConfig
	Runs   // fixed order: ENERGY-ONLY, SLA-AWARE, SLA+CARBON
}

// Names of the compared configurations.
const (
	SLARunEnergyOnly = "ENERGY-ONLY"
	SLARunAware      = "SLA-AWARE"
	SLARunCarbon     = "SLA+CARBON"
)

// slaPlatform is the trimmed Table I platform the carbon- and
// SLA-family studies share: two nodes per cluster — real placement
// choices across both grid sites without the idle floor drowning the
// workload energy.
func slaPlatform() *cluster.Platform {
	return cluster.MustPlatform(
		cluster.NewNodes("orion", 2),
		cluster.NewNodes("sagittaire", 2),
		cluster.NewNodes("taurus", 2),
	)
}

// RunSLAStudy executes the three configurations on the identical
// schedule, platform and grid profile.
func RunSLAStudy(cfg SLAConfig) (*SLAResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	platform := slaPlatform()
	profile := cfg.Profile()
	tasks, err := cfg.Tasks()
	if err != nil {
		return nil, fmt.Errorf("experiments: sla workload: %w", err)
	}
	catalog := sla.DefaultCatalog()

	// ENERGY-ONLY: the paper's GreenPerf placement, always-on (the
	// §IV-B baseline), FIFO queues, admits everything; the SLA module
	// only keeps the ledger, so revenue loss is measured on identical
	// scheduling behaviour.
	only := sim.NewScenario(platform, tasks,
		sim.WithPolicy(sched.New(sched.GreenPerf)),
		sim.WithExplore(),
		sim.WithSeed(cfg.Seed),
		sim.WithSlotsPerNode(cfg.SlotsPerNode),
		sim.WithModules(
			&sim.CarbonModule{Profile: profile},
			&sim.SLAModule{Config: &sla.Config{Catalog: catalog}},
		),
	)

	// SLA-AWARE: deadline-aware placement over the same GreenPerf
	// base (SLAModule.WrapDeadline), EDF queues, admission control —
	// same always-on platform, so the delta is purely the SLA
	// machinery.
	admission := &sla.Admission{Margin: cfg.AdmissionMargin}
	aware := sim.NewScenario(platform, tasks,
		sim.WithPolicy(sched.New(sched.GreenPerf)),
		sim.WithExplore(),
		sim.WithSeed(cfg.Seed),
		sim.WithSlotsPerNode(cfg.SlotsPerNode),
		sim.WithModules(
			&sim.CarbonModule{Profile: profile},
			&sim.SLAModule{
				Config:       &sla.Config{Catalog: catalog, Admission: admission, Order: sched.NewOrder(sched.EDF)},
				WrapDeadline: true,
			},
		),
	)

	// SLA+CARBON: carbon-ranked placement and candidacy windows on top
	// of the full SLA stack; deadline traffic rides the express lane
	// while the windows defer only the batch.
	carbonCtl := &consolidation.CarbonController{
		Profile:          profile,
		CleanG:           cfg.CleanG,
		DirtyG:           cfg.DirtyG,
		IdleTimeout:      cfg.IdleTimeout,
		MinOn:            cfg.MinOn,
		MaxDeferSec:      cfg.MaxDeferSec,
		DeadlineSlackSec: cfg.DeadlineSlackSec,
	}
	green := sim.NewScenario(platform, tasks,
		sim.WithPolicy(sched.New(sched.Carbon)),
		sim.WithExplore(),
		sim.WithSeed(cfg.Seed),
		sim.WithSlotsPerNode(cfg.SlotsPerNode),
		sim.WithTick(cfg.TickSec),
		sim.WithRetryEvery(60),
		sim.WithModules(
			&sim.CarbonModule{Profile: profile},
			&sim.SLAModule{
				Config: &sla.Config{
					Catalog: catalog, Admission: admission,
					Order: sched.NewOrder(sched.EDF), UrgentBypass: true,
				},
				WrapDeadline: true,
			},
			&consolidation.Module{Controller: carbonCtl},
		),
	)

	runs, err := runVariants("sla",
		variant{name: SLARunEnergyOnly, cfg: only},
		variant{name: SLARunAware, cfg: aware},
		variant{name: SLARunCarbon, cfg: green},
	)
	if err != nil {
		return nil, err
	}
	return &SLAResult{Config: cfg, Runs: runs}, nil
}

// Table renders the comparison.
func (r *SLAResult) Table() *report.Table {
	return r.Runs.table(fmt.Sprintf("SLA-aware scheduling: %d batch + %d deadline (+%d hopeless) + %d interactive tasks from %02.0f:00",
		r.Config.BatchTasks, r.Config.DeadlineTasks, r.Config.HopelessTasks,
		r.Config.InteractiveTasks, r.Config.StartHour),
		column{"Earned ($)", func(r Run) string { return fmt.Sprintf("%.2f", r.SLA.EarnedUSD) }},
		colForfeited,
		column{"Penalties ($)", func(r Run) string { return fmt.Sprintf("%.2f", r.SLA.PenaltyUSD) }},
		colLate, colRejected, colEnergyMJ, colCO2,
		column{"g/task", func(r Run) string { return fmt.Sprintf("%.2f", r.GramsPerTask()) }},
		colMakespanH)
}

// Render writes the table plus the headline trade-off.
func (r *SLAResult) Render(w io.Writer) error {
	if err := r.Table().Render(w); err != nil {
		return err
	}
	aware, ok1 := r.Run(SLARunAware)
	only, ok2 := r.Run(SLARunEnergyOnly)
	green, ok3 := r.Run(SLARunCarbon)
	if !ok1 || !ok2 || !ok3 {
		return nil
	}
	fmt.Fprintf(w, "\n%s recovers $%.2f of revenue lost by %s at %+.1f%% energy; %s also cuts CO2 %.1f%% (%s, makespan bound %.1f h, actual %.1f h)\n",
		SLARunAware, only.SLA.ForfeitedUSD+only.SLA.PenaltyUSD-aware.SLA.ForfeitedUSD-aware.SLA.PenaltyUSD,
		SLARunEnergyOnly, (aware.EnergyJ/only.EnergyJ-1)*100,
		SLARunCarbon, (1-green.CO2Grams/only.CO2Grams)*100,
		report.PerTask(green.JoulesPerTask(), green.GramsPerTask()),
		r.Config.MakespanBound()/3600, green.Makespan/3600)
	fmt.Fprintf(w, "\nPer-class ledger (%s):\n", SLARunCarbon)
	for _, a := range green.SLA.PerClass {
		fmt.Fprintf(w, "  %s\n", a.Line())
	}
	return nil
}
