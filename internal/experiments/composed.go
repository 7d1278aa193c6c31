package experiments

import (
	"fmt"
	"io"

	"greensched/internal/budget"
	"greensched/internal/consolidation"
	"greensched/internal/core"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/sla"
)

// ComposedConfig parameterizes the composition study — the proof that
// the sim.Module stack is a real extension surface, not three features
// that happen to coexist: carbon accounting, the full SLA machinery,
// checkpoint/restart preemption, the carbon-window controller and an
// energy-budget tracker all mount on ONE run, with no glue code
// between them.
//
// The scenario is the SLA study's evening mix with the interactive
// deadline tightened below a batch task's execution time, so that
// queue-wait math provably breaches it while an immediate start does
// not — the condition under which the arrival path checkpoints a
// running batch task in place. Two configurations replay the identical
// schedule:
//
//	CARBON-BLIND   GreenPerf always-on, FIFO, admits everything; the
//	               carbon and SLA modules only keep the books
//	COMPOSED       carbon-ranked placement + candidacy windows + EDF +
//	               admission + express lane + preemption + budget
//	               metering, stacked as five modules in one run
type ComposedConfig struct {
	// SLA is the underlying evening-mix scenario and controller knobs
	// (its Seed drives both runs).
	SLA SLAConfig

	// InteractiveRelSec overrides the SLA scenario's interactive
	// deadline; it must sit below a batch task's execution time for
	// the preemption path to fire.
	InteractiveRelSec float64

	// RestartPenaltyFrac is the checkpoint quality (0 = perfect).
	RestartPenaltyFrac float64

	// BudgetJ is the attributed-energy budget (joules of per-task
	// energy share) the tracker meters over BudgetHorizonSec; the
	// default is generous — the study asserts exact metering, and the
	// module steers elections only if consumption outruns the linear
	// burn-down.
	BudgetJ          float64
	BudgetHorizonSec float64

	// Trace, when set, receives the COMPOSED run's request spans as
	// JSONL (sim.TraceModule) — the obs.Span schema the live study
	// writes to its SpanW, so `greensched spans` reads either.
	Trace io.Writer
}

// DefaultComposedConfig returns the calibrated scenario: the SLA
// study's evening mix, with the interactive stream stretched to one
// arrival every ten minutes for twenty hours so it keeps arriving
// while the deferred batch saturates the clean-window capacity — the
// collision the preemption module resolves in place.
func DefaultComposedConfig() ComposedConfig {
	s := DefaultSLAConfig()
	s.InteractiveTasks = 120
	s.InteractiveEvery = 600
	// One slot per node: an urgent arrival's wait is one full batch
	// remainder (uniform over ≈400 s), which regularly exceeds its
	// ≈170 s of slack — queueing alone cannot save it, preemption can.
	s.SlotsPerNode = 1
	// Keep a serving floor powered: the express stream never pays a
	// boot transient, and at window-open the deferred batch spreads
	// across warm capacity instead of clumping onto the single
	// express-boot node — which is what makes every node saturated
	// when the interactive stream collides with it.
	s.MinOn = 4
	return ComposedConfig{
		SLA:                s,
		InteractiveRelSec:  180, // below a ≈400 s batch execution
		RestartPenaltyFrac: 0.1,
		BudgetJ:            600e6,
		BudgetHorizonSec:   s.MakespanBound(),
	}
}

// ScaleTasks rescales the scenario's four task streams so their sum
// approaches total while preserving the mix's proportions (each stream
// keeps at least one task, so the study's admission/preemption/deferral
// paths all still fire). total <= 0 leaves the config untouched — the
// CLI passes 0 for "use the calibrated default".
func (c *ComposedConfig) ScaleTasks(total int) {
	if total <= 0 {
		return
	}
	base := c.SLA.BatchTasks + c.SLA.DeadlineTasks + c.SLA.HopelessTasks + c.SLA.InteractiveTasks
	if base <= 0 {
		return
	}
	scale := float64(total) / float64(base)
	c.SLA.BatchTasks = scaleCount(c.SLA.BatchTasks, scale)
	c.SLA.DeadlineTasks = scaleCount(c.SLA.DeadlineTasks, scale)
	c.SLA.HopelessTasks = scaleCount(c.SLA.HopelessTasks, scale)
	c.SLA.InteractiveTasks = scaleCount(c.SLA.InteractiveTasks, scale)
	// The budget stays "generous per task" and the horizon tracks the
	// longer run, so scaling exercises throughput — not starvation.
	c.BudgetJ *= scale
	c.BudgetHorizonSec = c.SLA.MakespanBound()
}

// scaleCount scales one stream's size, keeping at least one task.
func scaleCount(n int, scale float64) int {
	if scaled := int(float64(n) * scale); scaled > 1 {
		return scaled
	}
	return 1
}

// Validate reports configuration errors.
func (c ComposedConfig) Validate() error {
	if err := c.SLA.Validate(); err != nil {
		return err
	}
	if c.InteractiveRelSec <= 0 {
		return fmt.Errorf("experiments: composed study needs a positive interactive deadline")
	}
	if c.BudgetJ <= 0 || c.BudgetHorizonSec <= 0 {
		return fmt.Errorf("experiments: composed study needs a positive budget and horizon")
	}
	return (sla.Preemption{RestartPenaltyFrac: c.RestartPenaltyFrac}).Validate()
}

// scenario returns the SLA config with the interactive deadline
// override applied — the schedule both runs replay.
func (c ComposedConfig) scenario() SLAConfig {
	s := c.SLA
	s.InteractiveRelSec = c.InteractiveRelSec
	return s
}

// Names of the compared configurations.
const (
	ComposedRunBlind = "CARBON-BLIND"
	ComposedRunFull  = "COMPOSED"
)

// ComposedResult bundles the compared configurations. The COMPOSED
// run's BudgetSpentJ must equal its TaskShareJ to the last charge
// (asserted in the study's test).
type ComposedResult struct {
	Config ComposedConfig
	Runs   // fixed order: CARBON-BLIND, COMPOSED
}

// RunComposedStudy executes both configurations on the identical
// schedule, platform and grid profile.
func RunComposedStudy(cfg ComposedConfig) (*ComposedResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scen := cfg.scenario()
	tasks, err := scen.Tasks()
	if err != nil {
		return nil, fmt.Errorf("experiments: composed workload: %w", err)
	}
	profile := scen.Profile()
	catalog := sla.DefaultCatalog()
	admission := &sla.Admission{Margin: scen.AdmissionMargin}

	blind := sim.NewScenario(slaPlatform(), tasks,
		sim.WithExplore(),
		sim.WithSeed(scen.Seed),
		sim.WithSlotsPerNode(scen.SlotsPerNode),
		sim.WithPolicy(sched.New(sched.GreenPerf)),
		sim.WithModules(
			&sim.CarbonModule{Profile: profile},
			&sim.SLAModule{Config: &sla.Config{Catalog: catalog}},
		),
	)

	tracker, err := budget.NewTracker(cfg.BudgetJ, cfg.BudgetHorizonSec)
	if err != nil {
		return nil, err
	}
	mods := []sim.Module{
		&sim.CarbonModule{Profile: profile},
		// Budget before SLA: if steering ever engages, the
		// deadline-feasibility screen below wraps the steered ranking
		// instead of being replaced by it.
		&budget.Module{Tracker: tracker, Steer: true, Base: core.PrefNone},
		&sim.SLAModule{
			Config: &sla.Config{
				Catalog: catalog, Admission: admission,
				Order: sched.NewOrder(sched.EDF), UrgentBypass: true,
			},
			WrapDeadline: true,
		},
		&sim.PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: cfg.RestartPenaltyFrac}},
		&consolidation.Module{Controller: &consolidation.CarbonController{
			Profile:          profile,
			CleanG:           scen.CleanG,
			DirtyG:           scen.DirtyG,
			IdleTimeout:      scen.IdleTimeout,
			MinOn:            scen.MinOn,
			MaxDeferSec:      scen.MaxDeferSec,
			DeadlineSlackSec: scen.DeadlineSlackSec,
			PreemptBatch:     true,
		}},
	}
	if cfg.Trace != nil {
		mods = append(mods, &sim.TraceModule{W: cfg.Trace})
	}
	full := sim.NewScenario(slaPlatform(), tasks,
		sim.WithExplore(),
		sim.WithSeed(scen.Seed),
		sim.WithSlotsPerNode(scen.SlotsPerNode),
		sim.WithPolicy(sched.New(sched.Carbon)),
		sim.WithTick(scen.TickSec),
		// Longer than any boot transient (and off the 300 s tick grid):
		// when a candidacy window opens and dark capacity boots, the
		// deferred batch's next retry wave lands after every boot
		// completes, so it spreads across all warm nodes instead of
		// clumping onto whichever booted first.
		sim.WithRetryEvery(510),
		sim.WithModules(mods...),
	)

	runs, err := runVariants("composed",
		variant{name: ComposedRunBlind, cfg: blind},
		variant{name: ComposedRunFull, cfg: full, tracker: tracker},
	)
	if err != nil {
		return nil, err
	}
	return &ComposedResult{Config: cfg, Runs: runs}, nil
}

// Table renders the comparison.
func (r *ComposedResult) Table() *report.Table {
	return r.Runs.table(fmt.Sprintf("Composed module stack: %d batch + %d deadline (+%d hopeless) + %d interactive (%.0f s deadline) from %02.0f:00",
		r.Config.SLA.BatchTasks, r.Config.SLA.DeadlineTasks, r.Config.SLA.HopelessTasks,
		r.Config.SLA.InteractiveTasks, r.Config.InteractiveRelSec, r.Config.SLA.StartHour),
		colNetUSD, colLate, colRejected, colPreempts, colVictims, colEnergyMJ, colCO2,
		column{"Budget (MJ)", func(r Run) string {
			if r.BudgetSpentJ > 0 {
				return fmt.Sprintf("%.2f", r.BudgetSpentJ/1e6)
			}
			return "-"
		}},
		colMakespanH)
}

// Render writes the table plus the composition's headline invariants.
func (r *ComposedResult) Render(w io.Writer) error {
	if err := r.Table().Render(w); err != nil {
		return err
	}
	blind, ok1 := r.Run(ComposedRunBlind)
	full, ok2 := r.Run(ComposedRunFull)
	if !ok1 || !ok2 {
		return nil
	}
	fmt.Fprintf(w, "\n%s stacks carbon + SLA + preemption + budget in one run: %.1f%% less CO2 than %s, net $%.2f vs $%.2f, %d preemptions with %d victim deadlines broken\n",
		ComposedRunFull, (1-full.CO2Grams/blind.CO2Grams)*100, ComposedRunBlind,
		full.NetUSD(), blind.NetUSD(), full.Preemptions, full.VictimMisses())
	fmt.Fprintf(w, "budget tracker metered %.2f MJ of task energy against a %.2f MJ budget (task shares sum to %.2f MJ)\n",
		full.BudgetSpentJ/1e6, r.Config.BudgetJ/1e6, full.TaskShareJ()/1e6)
	return nil
}
