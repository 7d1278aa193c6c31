package experiments

import (
	"fmt"
	"io"

	"greensched/internal/analysis"
	"greensched/internal/cluster"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

// PlacementConfig parameterizes the §IV-A experiment. The defaults
// reproduce the paper's operating regime: Table I platform (12 SEDs,
// 104 cores), 10 requests per available core, a burst phase followed
// by a continuous phase, and a CPU-bound single-core task.
//
// Calibration (DESIGN.md §3): the paper's task is nominally "1e8
// successive additions" with a 2 req/s continuous phase on 2011-2015
// hardware; TaskOps and Rate here are scaled so the load factor
// (demand ≈ one cluster's worth of cores) and the ≈2,300 s makespan
// match the published regime on the simulated FLOPS calibration.
type PlacementConfig struct {
	ReqsPerCore int     // requests per available core (paper: 10)
	BurstFrac   float64 // fraction of requests submitted as the burst
	Rate        float64 // continuous-phase requests per second
	TaskOps     float64 // flops per task
	Seed        int64

	// Static switches to the static (initial benchmark) estimation
	// approach; the default is the paper's dynamic approach.
	Static bool
}

// The physical realism every §IV-A run carries (see sim.Config): a
// co-runner slowdown, relative execution jitter, and wattmeter noise.
const (
	contention  = 0.08
	execJitter  = 0.02
	meterNoiseW = 2
)

// DefaultPlacementConfig returns the calibrated §IV-A setup.
func DefaultPlacementConfig() PlacementConfig {
	return PlacementConfig{
		ReqsPerCore: 10,
		BurstFrac:   0.10,
		Rate:        0.45,
		TaskOps:     9.0e11, // ≈100 s on a taurus core
		Seed:        1,
	}
}

// variants builds the §IV-A workload for platform — ReqsPerCore
// requests per core, BurstFrac of them at t=0 and the rest at Rate —
// and one configuration per policy over it, named after the policy.
// Every policy but the estimate-blind RANDOM and LEASTLOADED learns
// its estimates dynamically (Explore).
func (c PlacementConfig) variants(platform *cluster.Platform, kinds ...sched.Kind) ([]variant, error) {
	total := workload.PerCore(platform.Cores(), c.ReqsPerCore)
	tasks, err := workload.BurstThenRate{
		Total: total, Burst: int(float64(total) * c.BurstFrac), Rate: c.Rate, Ops: c.TaskOps,
	}.Tasks()
	if err != nil {
		return nil, err
	}
	vs := make([]variant, 0, len(kinds))
	for _, kind := range kinds {
		vs = append(vs, variant{name: string(kind), cfg: sim.Config{
			Platform:        platform,
			Policy:          sched.New(kind),
			Tasks:           tasks,
			Explore:         kind != sched.Random && kind != sched.LeastLoaded,
			Static:          c.Static,
			Seed:            c.Seed,
			Contention:      contention,
			ExecJitter:      execJitter,
			MeterNoiseW:     meterNoiseW,
			EstimatorWindow: 32,
		}})
	}
	return vs, nil
}

// PlacementResult bundles the three policy runs of §IV-A.
type PlacementResult struct {
	Platform *cluster.Platform
	Runs     // sched.Kinds() order: RANDOM, POWER, PERFORMANCE
}

// RunPlacement executes the experiment for the three §IV-A policies.
func RunPlacement(cfg PlacementConfig) (*PlacementResult, error) {
	platform := cluster.PaperPlatform()
	vs, err := cfg.variants(platform, sched.Kinds()...)
	if err != nil {
		return nil, err
	}
	runs, err := runVariants("placement", vs...)
	if err != nil {
		return nil, err
	}
	return &PlacementResult{Platform: platform, Runs: runs}, nil
}

// Table1 renders the experimental-infrastructure table.
func (r *PlacementResult) Table1() *report.Table {
	t := &report.Table{
		Title:   "Table I. Experimental infrastructure (SED nodes)",
		Headers: []string{"Cluster", "Nodes", "Cores/node", "GFlops/core", "Idle W", "Peak W"},
	}
	for _, cl := range r.Platform.Clusters() {
		idx := r.Platform.ByCluster(cl)
		spec := r.Platform.Nodes[idx[0]]
		t.AddRow(cl,
			fmt.Sprintf("%d", len(idx)),
			fmt.Sprintf("%d", spec.Cores),
			fmt.Sprintf("%.1f", spec.FlopsPerCore/1e9),
			fmt.Sprintf("%.0f", spec.IdleW),
			fmt.Sprintf("%.0f", spec.PeakW),
		)
	}
	return t
}

// Table2 renders the §IV-A makespan/energy comparison, one column per
// policy.
func (r *PlacementResult) Table2() *report.Table {
	t := &report.Table{Title: "Table II. Experimental results", Headers: []string{"Metric"}}
	for _, run := range r.Runs {
		t.Headers = append(t.Headers, run.Name)
	}
	for _, c := range []column{colMakespanS, colEnergyJ} {
		row := []string{c.header}
		for _, run := range r.Runs {
			row = append(row, c.cell(run))
		}
		t.AddRow(row...)
	}
	return t
}

// Headline computes the paper's three headline ratios: the energy gain
// of POWER vs RANDOM ("25%"), the energy gain of POWER vs PERFORMANCE
// ("19%"), and the makespan loss of POWER vs PERFORMANCE ("6%").
func (r *PlacementResult) Headline() (gainVsRandom, gainVsPerf, makespanLoss float64) {
	pw, rd, pf := r.kind(sched.Power), r.kind(sched.Random), r.kind(sched.Performance)
	return analysis.Gain(rd.EnergyJ, pw.EnergyJ),
		analysis.Gain(pf.EnergyJ, pw.EnergyJ),
		analysis.Loss(pf.Makespan, pw.Makespan)
}

// TaskFigure renders the per-node task distribution for a policy —
// Figure 2 (POWER), Figure 3 (PERFORMANCE) or Figure 4 (RANDOM).
func (r *PlacementResult) TaskFigure(kind sched.Kind, title string) *report.BarChart {
	c := &report.BarChart{Title: title, Unit: " tasks"}
	run := r.kind(kind)
	for _, node := range r.Platform.Nodes {
		c.Add(node.Name, float64(run.PerNodeTasks[node.Name]))
	}
	return c
}

// EnergyFigure renders Figure 5: energy per cluster for each policy.
func (r *PlacementResult) EnergyFigure() *report.BarChart {
	c := &report.BarChart{Title: "Figure 5. Energy consumption per cluster (J)", Unit: " J"}
	for _, run := range r.Runs {
		for _, cl := range r.Platform.Clusters() {
			c.Add(fmt.Sprintf("%s/%s", run.Name, cl), run.PerClusterEnergy[cl])
		}
	}
	return c
}

// Render writes the full §IV-A report: Table I, Figures 2–5, Table II
// and the headline ratios.
func (r *PlacementResult) Render(w io.Writer) error {
	if err := r.Table1().Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	figs := []struct {
		kind  sched.Kind
		title string
	}{
		{sched.Power, "Figure 2. Tasks distribution using power consumption as placement criterion"},
		{sched.Performance, "Figure 3. Tasks distribution using performance as placement criterion"},
		{sched.Random, "Figure 4. Tasks distribution with random placement"},
	}
	for _, f := range figs {
		if err := r.TaskFigure(f.kind, f.title).Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if err := r.EnergyFigure().Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := r.Table2().Render(w); err != nil {
		return err
	}
	gR, gP, loss := r.Headline()
	_, err := fmt.Fprintf(w,
		"\nPOWER energy gain vs RANDOM: %.1f%% (paper: 25%%)\nPOWER energy gain vs PERFORMANCE: %.1f%% (paper: up to 19%%)\nPOWER makespan loss vs PERFORMANCE: %.1f%% (paper: up to 6%%)\n",
		gR*100, gP*100, loss*100)
	return err
}
