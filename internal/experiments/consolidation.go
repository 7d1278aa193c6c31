package experiments

import (
	"fmt"
	"io"

	"greensched/internal/analysis"
	"greensched/internal/cluster"
	"greensched/internal/consolidation"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

// ConsolidationConfig parameterizes the related-work comparison: the
// §II-B consolidation/load-concentration baseline (Hermenier [11],
// Green Open Cloud [12]) against the paper's always-on policies, on an
// under-utilized workload — a burst, a long idle gap, then a sustained
// second phase. This is the regime §II-B motivates ("Cloud computing
// infrastructures are seldom fully utilized") and where the paper's
// §IV-C shutdowns are the answer to GreenPerf's idle-floor blind spot.
type ConsolidationConfig struct {
	Tasks       int     // tasks per phase
	TaskOps     float64 // flops per first-phase task
	GapSec      float64 // idle gap between the phases
	SecondRate  float64 // second-phase arrivals per second
	IdleTimeout float64 // controller idle threshold, seconds
	TickSec     float64 // controller cadence, seconds
	MinOn       int     // nodes always kept on
	Seed        int64
}

// DefaultConsolidationConfig returns the calibrated low-utilization
// scenario on the Table I platform.
func DefaultConsolidationConfig() ConsolidationConfig {
	return ConsolidationConfig{
		Tasks:       60,
		TaskOps:     4.5e11, // ≈50 s on a taurus core
		GapSec:      3600,   // one idle hour
		SecondRate:  0.25,   // trickle: ~1 node's worth of sustained work
		IdleTimeout: 600,    // match the paper's 10-minute planner tick
		TickSec:     60,
		MinOn:       2,
		Seed:        1,
	}
}

// ConsolidationResult bundles the compared configurations.
type ConsolidationResult struct {
	Runs // fixed order: RANDOM, POWER, CONSOLIDATION, CONSOLIDATION+GREENPERF
}

// RunConsolidation executes the four configurations on the identical
// arrival schedule.
func RunConsolidation(cfg ConsolidationConfig) (*ConsolidationResult, error) {
	platform := cluster.PaperPlatform()
	first, err := workload.BurstThenRate{
		Total: cfg.Tasks, Burst: cfg.Tasks, Ops: cfg.TaskOps,
	}.Tasks()
	if err != nil {
		return nil, fmt.Errorf("experiments: consolidation phase 1: %w", err)
	}
	second, err := workload.BurstThenRate{
		Total: cfg.Tasks, Burst: cfg.Tasks / 4, Rate: cfg.SecondRate, Ops: cfg.TaskOps,
	}.Tasks()
	if err != nil {
		return nil, fmt.Errorf("experiments: consolidation phase 2: %w", err)
	}
	tasks := workload.Merge(first, workload.Shift(second, cfg.GapSec))

	base := sim.Config{
		Platform: platform,
		Tasks:    tasks,
		Seed:     cfg.Seed,
	}
	// The module validates its controller in Init, so a bad
	// IdleTimeout/MinOn surfaces from sim.Run below.
	managed := func(policy sched.Policy) sim.Config {
		c := base
		c.Policy = policy
		c.Modules = []sim.Module{&consolidation.Module{Controller: &consolidation.Controller{
			IdleTimeout: cfg.IdleTimeout,
			MinOn:       cfg.MinOn,
		}}}
		c.ControlEvery = cfg.TickSec
		return c
	}

	randomCfg := base
	randomCfg.Policy = sched.New(sched.Random)
	powerCfg := base
	powerCfg.Policy = sched.New(sched.Power)
	powerCfg.Explore = true
	consCfg := managed(consolidation.Policy{})
	greenCfg := managed(consolidation.GreenTieBreak{})
	greenCfg.Explore = true // the green tie-break needs estimates

	var variants []variant
	for _, c := range []sim.Config{randomCfg, powerCfg, consCfg, greenCfg} {
		variants = append(variants, variant{name: c.Policy.Name(), cfg: c})
	}
	runs, err := runVariants("consolidation", variants...)
	if err != nil {
		return nil, err
	}
	return &ConsolidationResult{Runs: runs}, nil
}

// Table renders the comparison.
func (r *ConsolidationResult) Table() *report.Table {
	return r.Runs.table("Consolidation baseline vs always-on policies (under-utilized workload)",
		colEnergyJ, colMakespanS, colMeanWait, colBoots, colShutdowns)
}

// Render writes the table plus the headline saving of consolidation
// over the always-on POWER policy.
func (r *ConsolidationResult) Render(w io.Writer) error {
	if err := r.Table().Render(w); err != nil {
		return err
	}
	pw, ok1 := r.Run(string(sched.Power))
	cons, ok2 := r.Run(consolidation.PolicyName)
	if ok1 && ok2 {
		fmt.Fprintf(w, "\nidle shutdown saving vs always-on POWER: %.1f%% (idle gap %s)\n",
			analysis.Gain(pw.EnergyJ, cons.EnergyJ)*100, "in the workload")
	}
	return nil
}
