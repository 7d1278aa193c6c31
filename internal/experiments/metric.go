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

// MetricPoint is one labelled figure coordinate.
type MetricPoint struct {
	Label    string // "G", "GP" or "P"
	Policy   string
	Makespan float64
	EnergyJ  float64
}

// MetricResult holds one figure's data.
type MetricResult struct {
	Platform *cluster.Platform
	Points   []MetricPoint
	Random   analysis.Envelope // min/max area over the RANDOM runs
}

// RunMetricStudy executes the §IV-B simulation on the given platform
// (use cluster.LowHeterogeneityPlatform for Figure 6 and
// cluster.HighHeterogeneityPlatform for Figure 7).
func RunMetricStudy(cfg MetricConfig, platform *cluster.Platform) (*MetricResult, error) {
	if cfg.TasksPerClient <= 0 || cfg.ClientRate <= 0 || cfg.TaskOps <= 0 {
		return nil, fmt.Errorf("experiments: metric study needs positive tasks, rate and ops")
	}
	if cfg.RandomRuns <= 0 {
		cfg.RandomRuns = 10
	}
	// Two clients submitting the same stream shape (§IV-B: "2 clients
	// submitting requests").
	mkTasks := func() ([]workload.Task, error) {
		c1, err := workload.BurstThenRate{
			Total: cfg.TasksPerClient, Burst: 1, Rate: cfg.ClientRate, Ops: cfg.TaskOps,
		}.Tasks()
		if err != nil {
			return nil, err
		}
		c2, err := workload.BurstThenRate{
			Total: cfg.TasksPerClient, Burst: 1, Rate: cfg.ClientRate, Ops: cfg.TaskOps,
		}.Tasks()
		if err != nil {
			return nil, err
		}
		return workload.Merge(c1, c2), nil
	}
	tasks, err := mkTasks()
	if err != nil {
		return nil, err
	}

	run := func(policy sched.Policy, seed int64) (*sim.Result, error) {
		return sim.Run(sim.Config{
			Platform:     platform,
			Policy:       policy,
			Tasks:        tasks,
			SlotsPerNode: 1,    // §IV-B: one task per server
			Static:       true, // seeded from the initial benchmark
			Seed:         seed,
		})
	}

	out := &MetricResult{Platform: platform}
	for _, p := range []struct {
		label string
		kind  sched.Kind
	}{
		{"G", sched.Power},
		{"GP", sched.GreenPerf},
		{"P", sched.Performance},
	} {
		res, err := run(sched.New(p.kind), cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: metric study %s: %w", p.kind, err)
		}
		out.Points = append(out.Points, MetricPoint{
			Label:    p.label,
			Policy:   string(p.kind),
			Makespan: res.Makespan,
			EnergyJ:  res.EnergyJ,
		})
	}

	xs := make([]float64, 0, cfg.RandomRuns)
	ys := make([]float64, 0, cfg.RandomRuns)
	for i := 0; i < cfg.RandomRuns; i++ {
		res, err := run(sched.New(sched.Random), cfg.Seed+int64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("experiments: metric study RANDOM run %d: %w", i, err)
		}
		xs = append(xs, res.Makespan)
		ys = append(ys, res.EnergyJ)
	}
	env, err := analysis.EnvelopeOf(xs, ys)
	if err != nil {
		return nil, err
	}
	out.Random = env
	return out, nil
}

// Point returns the labelled point ("G", "GP", "P"), or nil.
func (r *MetricResult) Point(label string) *MetricPoint {
	for i := range r.Points {
		if r.Points[i].Label == label {
			return &r.Points[i]
		}
	}
	return nil
}

// TradeoffQuality quantifies Figure 7's claim that GP is "a better
// tradeoff between POWER and PERFORMANCE": it returns GP's normalized
// distance from the ideal corner (min makespan of G/GP/P, min energy
// of G/GP/P) relative to the G–P spread; smaller is better.
func (r *MetricResult) TradeoffQuality() float64 {
	g, gp, p := r.Point("G"), r.Point("GP"), r.Point("P")
	if g == nil || gp == nil || p == nil {
		return 1
	}
	minT := min3(g.Makespan, gp.Makespan, p.Makespan)
	maxT := max3(g.Makespan, gp.Makespan, p.Makespan)
	minE := min3(g.EnergyJ, gp.EnergyJ, p.EnergyJ)
	maxE := max3(g.EnergyJ, gp.EnergyJ, p.EnergyJ)
	dt, de := 0.0, 0.0
	if maxT > minT {
		dt = (gp.Makespan - minT) / (maxT - minT)
	}
	if maxE > minE {
		de = (gp.EnergyJ - minE) / (maxE - minE)
	}
	// Euclidean-ish combination normalized to [0, 1].
	return (dt + de) / 2
}

// Figure renders the Figure 6/7 scatter.
func (r *MetricResult) Figure(title string) *report.Scatter {
	s := &report.Scatter{Title: title, XLabel: "makespan (s)", YLabel: "energy (J)"}
	for _, p := range r.Points {
		s.Add(p.Label, p.Makespan, p.EnergyJ)
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

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
