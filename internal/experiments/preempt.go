package experiments

import (
	"fmt"
	"io"

	"greensched/internal/cluster"
	"greensched/internal/consolidation"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// PreemptionConfig parameterizes the preemption study: a batch burst
// saturates every powered node's slot and queue while a periodic
// high-value interactive stream arrives with deadlines far tighter
// than the batch drain. Two configurations replay the identical
// schedule:
//
//	EXPRESS-BOOT   the PR-2 state of the art: deadline-slack guards
//	               boot dark capacity when a deadline tightens — but
//	               an elected request never migrates, so work already
//	               queued behind running batch cannot reach the fresh
//	               node; the boots burn joules while some deadlines
//	               still slip
//	PREEMPTION     the same controller plus checkpoint/restart: the
//	               urgent arrival displaces a running batch task in
//	               place (progress retained minus the restart
//	               penalty), no boot needed
//
// The comparison makes the tentpole claim measurable: strictly more
// net revenue at no more energy, with zero victim deadlines broken by
// the displacements.
type PreemptionConfig struct {
	Nodes        int // taurus nodes; one is shed idle pre-burst
	SlotsPerNode int

	BatchTasks  int     // burst saturating slots and queues
	BatchOps    float64 // flops per batch task
	BatchRelSec float64 // generous batch deadline (victim safety must hold)
	BatchAt     float64 // burst submission time

	InteractiveTasks  int     // periodic urgent stream
	InteractiveOps    float64 // flops per interactive task
	InteractiveRelSec float64 // deadline after submission
	InteractiveEvery  float64 // arrival period, seconds
	InteractiveAt     float64 // first arrival

	IdleTimeout      float64 // controller idle-shutdown grace
	MinOn            int     // nodes kept powered
	TickSec          float64 // controller cadence
	DeadlineSlackSec float64 // urgent guard margin

	RestartPenaltyFrac float64 // checkpoint quality (0 = perfect)

	Seed int64
}

// DefaultPreemptionConfig returns the calibrated scenario: four taurus
// nodes at one slot each; the idle-shutdown controller sheds one node
// before a six-task batch burst (≈1000 s each) saturates the remaining
// three slots and queues; six interactive tasks (10 s, 250 s deadline)
// then arrive every 400 s. Express boots alone cannot rescue the ones
// that land while every slot is held by batch — preemption can.
func DefaultPreemptionConfig() PreemptionConfig {
	return PreemptionConfig{
		Nodes:        4,
		SlotsPerNode: 1,

		BatchTasks:  6,
		BatchOps:    9e12, // ≈1000 s on a taurus core
		BatchRelSec: 18000,
		BatchAt:     400,

		InteractiveTasks:  6,
		InteractiveOps:    9e10, // ≈10 s on a taurus core
		InteractiveRelSec: 250,
		InteractiveEvery:  400,
		InteractiveAt:     500,

		IdleTimeout:      300,
		MinOn:            3,
		TickSec:          60,
		DeadlineSlackSec: 300,

		RestartPenaltyFrac: 0.1,

		Seed: 1,
	}
}

// Validate reports configuration errors.
func (c PreemptionConfig) Validate() error {
	switch {
	case c.Nodes < 2 || c.SlotsPerNode < 1:
		return fmt.Errorf("experiments: preemption study needs ≥2 nodes with ≥1 slot")
	case c.MinOn < 1 || c.MinOn >= c.Nodes:
		return fmt.Errorf("experiments: MinOn %d must leave a dark node on a %d-node platform", c.MinOn, c.Nodes)
	case c.BatchTasks < 1 || c.BatchOps <= 0 || c.BatchRelSec <= 0:
		return fmt.Errorf("experiments: preemption study needs a positive batch burst")
	case c.InteractiveTasks < 1 || c.InteractiveOps <= 0 || c.InteractiveRelSec <= 0 || c.InteractiveEvery <= 0:
		return fmt.Errorf("experiments: preemption study needs a positive interactive stream")
	case c.IdleTimeout <= 0 || c.TickSec <= 0 || c.DeadlineSlackSec <= 0:
		return fmt.Errorf("experiments: preemption study needs positive controller parameters")
	}
	return (sla.Preemption{RestartPenaltyFrac: c.RestartPenaltyFrac}).Validate()
}

// Catalog returns the two classes of the study: deferrable batch with
// a generous hard deadline (so victim safety is a real obligation) and
// high-value interactive work on a tight one.
func (c PreemptionConfig) Catalog() sla.Catalog {
	return sla.Catalog{
		"batch": {Name: "batch", RelDeadlineSec: c.BatchRelSec, ValueUSD: 0.05, Curve: sla.HardDrop{}},
		"interactive": {Name: "interactive", RelDeadlineSec: c.InteractiveRelSec, ValueUSD: 2.00,
			Curve: sla.HardDrop{}},
	}
}

// Tasks materializes the identical arrival schedule both runs replay.
func (c PreemptionConfig) Tasks() ([]workload.Task, error) {
	batch, err := workload.BurstThenRate{
		Total: c.BatchTasks, Burst: c.BatchTasks, Ops: c.BatchOps, Class: "batch",
	}.Tasks()
	if err != nil {
		return nil, err
	}
	interactive, err := workload.BurstThenRate{
		Total: c.InteractiveTasks, Burst: 0, Rate: 1 / c.InteractiveEvery,
		Ops: c.InteractiveOps, Class: "interactive",
	}.Tasks()
	if err != nil {
		return nil, err
	}
	return workload.Merge(
		workload.Shift(batch, c.BatchAt),
		workload.Shift(interactive, c.InteractiveAt-c.InteractiveEvery),
	), nil
}

// Names of the compared configurations.
const (
	PreemptRunExpressBoot = "EXPRESS-BOOT"
	PreemptRunPreemption  = "PREEMPTION"
)

// PreemptionResult bundles the compared configurations.
type PreemptionResult struct {
	Config PreemptionConfig
	Runs   // fixed order: EXPRESS-BOOT, PREEMPTION
}

// RunPreemptionStudy executes both configurations on the identical
// schedule and platform.
func RunPreemptionStudy(cfg PreemptionConfig) (*PreemptionResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tasks, err := cfg.Tasks()
	if err != nil {
		return nil, fmt.Errorf("experiments: preemption workload: %w", err)
	}
	var variants []variant
	for _, v := range []struct {
		name    string
		preempt bool
	}{
		{PreemptRunExpressBoot, false},
		{PreemptRunPreemption, true},
	} {
		ctl := &consolidation.Controller{
			IdleTimeout:      cfg.IdleTimeout,
			MinOn:            cfg.MinOn,
			DeadlineSlackSec: cfg.DeadlineSlackSec,
			PreemptBatch:     v.preempt,
		}
		mods := []sim.Module{
			&sim.SLAModule{Config: &sla.Config{Catalog: cfg.Catalog(), Order: sched.NewOrder(sched.EDF)}},
		}
		if v.preempt {
			mods = append(mods, &sim.PreemptModule{
				Preemption: &sla.Preemption{RestartPenaltyFrac: cfg.RestartPenaltyFrac},
			})
		}
		mods = append(mods, &consolidation.Module{Controller: ctl})
		variants = append(variants, variant{name: v.name, cfg: sim.NewScenario(
			cluster.MustPlatform(cluster.NewNodes("taurus", cfg.Nodes)),
			tasks,
			sim.WithPolicy(sched.New(sched.GreenPerf)),
			sim.WithStatic(), // deterministic placement: the contrast is the controller, not learning noise
			sim.WithSeed(cfg.Seed),
			sim.WithSlotsPerNode(cfg.SlotsPerNode),
			sim.WithTick(cfg.TickSec),
			sim.WithRetryEvery(30),
			sim.WithModules(mods...),
		)})
	}
	runs, err := runVariants("preemption", variants...)
	if err != nil {
		return nil, err
	}
	return &PreemptionResult{Config: cfg, Runs: runs}, nil
}

// Table renders the comparison.
func (r *PreemptionResult) Table() *report.Table {
	return r.Runs.table(fmt.Sprintf("Preemption vs express boot: %d batch (≈%.0f s) + %d interactive (%.0f s deadline) on %d nodes",
		r.Config.BatchTasks, r.Config.BatchOps/9e9, r.Config.InteractiveTasks,
		r.Config.InteractiveRelSec, r.Config.Nodes),
		colNetUSD, colForfeited, colLate, colBoots, colPreempts, colVictims, colEnergyMJ, colMakespanH)
}

// Render writes the table plus the headline trade-off.
func (r *PreemptionResult) Render(w io.Writer) error {
	if err := r.Table().Render(w); err != nil {
		return err
	}
	boot, ok1 := r.Run(PreemptRunExpressBoot)
	pre, ok2 := r.Run(PreemptRunPreemption)
	if !ok1 || !ok2 {
		return nil
	}
	fmt.Fprintf(w, "\n%s recovers $%.2f of net revenue over %s at %+.1f%% energy, %d preemptions (%.0f s of work redone), %d victim deadlines broken\n",
		PreemptRunPreemption, pre.NetUSD()-boot.NetUSD(), PreemptRunExpressBoot,
		(pre.EnergyJ/boot.EnergyJ-1)*100, pre.Preemptions, pre.PreemptRedoneOps/9e9, pre.VictimMisses())
	return nil
}
