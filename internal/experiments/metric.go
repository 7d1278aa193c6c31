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

// MetricConfig parameterizes the §IV-B GreenPerf evaluation: a
// simulation seeded from an initial benchmark of the nodes, where
// "each server is limited to the computation of one task" and two
// clients submit requests. The experiment compares the placements of
// POWER (G), GreenPerf (GP) and PERFORMANCE (P) against the envelope
// of repeated RANDOM runs, on a low-heterogeneity platform (Figure 6,
// two server types) and a high-heterogeneity one (Figure 7, four
// types).
type MetricConfig struct {
	TasksPerClient int     // requests each of the two clients submits
	ClientRate     float64 // per-client submission rate (req/s)
	TaskOps        float64 // flops per task
	RandomRuns     int     // RANDOM repetitions for the shaded area
	Seed           int64
}

// DefaultMetricConfig returns the calibrated §IV-B setup.
func DefaultMetricConfig() MetricConfig {
	return MetricConfig{
		TasksPerClient: 60,
		ClientRate:     0.025,
		TaskOps:        9.0e11,
		RandomRuns:     20,
		Seed:           1,
	}
}

// MetricResult holds one figure's data.
type MetricResult struct {
	Platform *cluster.Platform
	Runs                       // the labelled points: "G", "GP" and "P", in that order
	Random   analysis.Envelope // min/max area over the RANDOM runs
}

// RunMetricStudy executes the §IV-B simulation on the given platform
// (use cluster.LowHeterogeneityPlatform for Figure 6 and
// cluster.HighHeterogeneityPlatform for Figure 7).
func RunMetricStudy(cfg MetricConfig, platform *cluster.Platform) (*MetricResult, error) {
	if cfg.TasksPerClient <= 0 || cfg.ClientRate <= 0 || cfg.TaskOps <= 0 || cfg.RandomRuns <= 0 {
		return nil, fmt.Errorf("experiments: metric study needs positive tasks, rate, ops and RANDOM runs")
	}
	// Two clients submitting the same stream shape (§IV-B: "2 clients
	// submitting requests").
	client, err := workload.BurstThenRate{
		Total: cfg.TasksPerClient, Burst: 1, Rate: cfg.ClientRate, Ops: cfg.TaskOps,
	}.Tasks()
	if err != nil {
		return nil, err
	}
	tasks := workload.Merge(client, client)

	v := func(name string, kind sched.Kind, seed int64) variant {
		return variant{name: name, cfg: sim.Config{
			Platform:     platform,
			Policy:       sched.New(kind),
			Tasks:        tasks,
			SlotsPerNode: 1,    // §IV-B: one task per server
			Static:       true, // seeded from the initial benchmark
			Seed:         seed,
		}}
	}
	runs, err := runVariants("metric study",
		v("G", sched.Power, cfg.Seed), v("GP", sched.GreenPerf, cfg.Seed), v("P", sched.Performance, cfg.Seed))
	if err != nil {
		return nil, err
	}

	random := make([]variant, 0, cfg.RandomRuns)
	for i := 0; i < cfg.RandomRuns; i++ {
		random = append(random, v(fmt.Sprintf("RANDOM run %d", i), sched.Random, cfg.Seed+int64(i)*7919))
	}
	randomRuns, err := runVariants("metric study", random...)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, 0, len(randomRuns))
	ys := make([]float64, 0, len(randomRuns))
	for _, r := range randomRuns {
		xs = append(xs, r.Makespan)
		ys = append(ys, r.EnergyJ)
	}
	env, err := analysis.EnvelopeOf(xs, ys)
	if err != nil {
		return nil, err
	}
	return &MetricResult{Platform: platform, Runs: runs, Random: env}, nil
}

// TradeoffQuality quantifies Figure 7's claim that GP is "a better
// tradeoff between POWER and PERFORMANCE": it returns GP's normalized
// distance from the ideal corner (min makespan of G/GP/P, min energy
// of G/GP/P) relative to the G–P spread; smaller is better.
func (r *MetricResult) TradeoffQuality() float64 {
	_, _, q := gpGeometry(r.Runs)
	return q
}

// gpGeometry measures the G/GP/P placement geometry of rs, which holds
// the POWER (G), GREENPERF (GP) and PERFORMANCE (P) runs in that
// order: the makespan and energy ranges across the three, each
// relative to its minimum, and GP's distance from the ideal corner
// normalized by those ranges, in [0, 1].
func gpGeometry(rs Runs) (makespanRange, energyRange, quality float64) {
	g, gp, p := rs[0], rs[1], rs[2]
	minT, maxT := min(g.Makespan, gp.Makespan, p.Makespan), max(g.Makespan, gp.Makespan, p.Makespan)
	minE, maxE := min(g.EnergyJ, gp.EnergyJ, p.EnergyJ), max(g.EnergyJ, gp.EnergyJ, p.EnergyJ)
	dt, de := 0.0, 0.0
	if maxT > minT {
		dt = (gp.Makespan - minT) / (maxT - minT)
	}
	if maxE > minE {
		de = (gp.EnergyJ - minE) / (maxE - minE)
	}
	// Euclidean-ish combination normalized to [0, 1].
	return (maxT - minT) / minT, (maxE - minE) / minE, (dt + de) / 2
}

// Figure renders the Figure 6/7 scatter.
func (r *MetricResult) Figure(title string) *report.Scatter {
	s := &report.Scatter{Title: title, XLabel: "makespan (s)", YLabel: "energy (J)"}
	for _, run := range r.Runs {
		s.Add(run.Name, run.Makespan, run.EnergyJ)
	}
	s.SetBand(r.Random.MinX, r.Random.MaxX, r.Random.MinY, r.Random.MaxY)
	return s
}

// Table3 renders the simulated-cluster consumption table.
func Table3() *report.Table {
	t := &report.Table{
		Title:   "Table III. Energy consumption of simulated clusters",
		Headers: []string{"Cluster", "Idle consumption (W)", "Peak consumption (W)"},
	}
	for _, typ := range []string{"sim1", "sim2"} {
		spec, _ := cluster.Spec(typ)
		t.AddRow(typ, fmt.Sprintf("%.0f", spec.IdleW), fmt.Sprintf("%.0f", spec.PeakW))
	}
	return t
}

// RenderMetricStudy runs both heterogeneity scenarios and writes
// Figures 6 and 7 plus Table III.
func RenderMetricStudy(cfg MetricConfig, w io.Writer) error {
	low, err := RunMetricStudy(cfg, cluster.LowHeterogeneityPlatform())
	if err != nil {
		return err
	}
	if err := low.Figure("Figure 6. Comparison of metrics, 2 server types, 2 clients").Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "platform heterogeneity index: %.2f — GP tradeoff quality (0 best, 1 worst): %.2f\n\n",
		low.Platform.HeterogeneityIndex(), low.TradeoffQuality())
	high, err := RunMetricStudy(cfg, cluster.HighHeterogeneityPlatform())
	if err != nil {
		return err
	}
	if err := high.Figure("Figure 7. Comparison of metrics, 4 server types, 2 clients").Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "platform heterogeneity index: %.2f — GP tradeoff quality (0 best, 1 worst): %.2f\n\n",
		high.Platform.HeterogeneityIndex(), high.TradeoffQuality())
	return Table3().Render(w)
}
