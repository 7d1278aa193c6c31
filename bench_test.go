// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices
// called out in DESIGN.md §5. Each bench attaches the quantities the
// corresponding artifact reports via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper-facing numbers next to the runtime costs. The
// full rendered tables/figures come from `go run ./cmd/greensched all`
// and are recorded in EXPERIMENTS.md.
package greensched

import (
	"fmt"
	"testing"

	"greensched/internal/analysis"
	"greensched/internal/budget"
	"greensched/internal/cluster"
	"greensched/internal/core"
	"greensched/internal/dvfs"
	"greensched/internal/estvec"
	"greensched/internal/experiments"
	"greensched/internal/provision"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/thermal"
	"greensched/internal/workload"
)

// --- Table I -------------------------------------------------------

func BenchmarkTable1Platform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := cluster.PaperPlatform()
		if p.Cores() != 104 {
			b.Fatal("platform changed")
		}
		cluster.BenchmarkPlatform(p, 1e9, 0, nil)
	}
	b.ReportMetric(104, "cores")
	b.ReportMetric(12, "nodes")
}

// --- Figures 2-4: per-policy placement ------------------------------

func placementRun(b *testing.B, kind sched.Kind) *sim.Result {
	b.Helper()
	cfg := experiments.DefaultPlacementConfig()
	platform := cluster.PaperPlatform()
	tasks, err := workload.BurstThenRate{
		Total: workload.PerCore(platform.Cores(), cfg.ReqsPerCore),
		Burst: int(float64(workload.PerCore(platform.Cores(), cfg.ReqsPerCore)) * cfg.BurstFrac),
		Rate:  cfg.Rate,
		Ops:   cfg.TaskOps,
	}.Tasks()
	if err != nil {
		b.Fatal(err)
	}
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		res, err = sim.Run(sim.Config{
			Platform:    platform,
			Policy:      sched.New(kind),
			Tasks:       tasks,
			Explore:     kind != sched.Random,
			Seed:        cfg.Seed,
			Contention:  cfg.Contention,
			ExecJitter:  cfg.ExecJitter,
			MeterNoiseW: cfg.MeterNoise,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkFigure2PowerPlacement(b *testing.B) {
	res := placementRun(b, sched.Power)
	b.ReportMetric(float64(res.PerClusterTasks["taurus"]), "taurus-tasks")
	b.ReportMetric(float64(res.PerClusterTasks["orion"]), "orion-tasks")
	b.ReportMetric(float64(res.PerClusterTasks["sagittaire"]), "sagittaire-tasks")
}

func BenchmarkFigure3PerformancePlacement(b *testing.B) {
	res := placementRun(b, sched.Performance)
	b.ReportMetric(float64(res.PerClusterTasks["orion"]), "orion-tasks")
	b.ReportMetric(float64(res.PerClusterTasks["taurus"]), "taurus-tasks")
}

func BenchmarkFigure4RandomPlacement(b *testing.B) {
	res := placementRun(b, sched.Random)
	b.ReportMetric(float64(res.PerClusterTasks["sagittaire"]), "sagittaire-tasks")
	b.ReportMetric(float64(res.Completed), "tasks")
}

// --- Figure 5 + Table II: full policy comparison ---------------------

func BenchmarkTable2PolicyComparison(b *testing.B) {
	var res *experiments.PlacementResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunPlacement(experiments.DefaultPlacementConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	gainRandom, gainPerf, loss := res.Headline()
	b.ReportMetric(res.Runs[sched.Random].Makespan, "random-makespan-s")
	b.ReportMetric(res.Runs[sched.Power].Makespan, "power-makespan-s")
	b.ReportMetric(res.Runs[sched.Performance].Makespan, "perf-makespan-s")
	b.ReportMetric(res.Runs[sched.Random].EnergyJ, "random-J")
	b.ReportMetric(res.Runs[sched.Power].EnergyJ, "power-J")
	b.ReportMetric(res.Runs[sched.Performance].EnergyJ, "perf-J")
	b.ReportMetric(gainRandom*100, "gain-vs-random-%")
	b.ReportMetric(gainPerf*100, "gain-vs-perf-%")
	b.ReportMetric(loss*100, "makespan-loss-%")
}

func BenchmarkFigure5ClusterEnergy(b *testing.B) {
	var res *experiments.PlacementResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunPlacement(experiments.DefaultPlacementConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, cl := range res.Platform.Clusters() {
		b.ReportMetric(res.Runs[sched.Power].PerClusterEnergy[cl]/1e6, "power-"+cl+"-MJ")
		b.ReportMetric(res.Runs[sched.Random].PerClusterEnergy[cl]/1e6, "random-"+cl+"-MJ")
	}
}

// --- Figures 6-7 + Table III: GreenPerf metric study -----------------

func metricRun(b *testing.B, platform *cluster.Platform) *experiments.MetricResult {
	b.Helper()
	var res *experiments.MetricResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunMetricStudy(experiments.DefaultMetricConfig(), platform)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkReplicationTable2 reruns the Table II experiment across
// five seeds and reports the headline ratios as mean and 95% CI
// half-width — the population version of the paper's point estimates.
func BenchmarkReplicationTable2(b *testing.B) {
	cfg := experiments.DefaultReplicationConfig()
	cfg.Seeds = 5
	var res *experiments.ReplicationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunReplication(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	gR, gP, loss, err := res.HeadlineSummaries()
	if err != nil {
		b.Fatal(err)
	}
	if v := res.ShapeViolations(); len(v) > 0 {
		b.Fatalf("Table II orderings violated in %d seed(s): %+v", len(v), v)
	}
	half := func(s analysis.Summary) float64 {
		lo, hi := s.CI(cfg.Confidence)
		return (hi - lo) / 2
	}
	b.ReportMetric(gR.Mean*100, "gain-vs-random-%")
	b.ReportMetric(half(gR)*100, "gain-vs-random-ci95-%")
	b.ReportMetric(gP.Mean*100, "gain-vs-perf-%")
	b.ReportMetric(half(gP)*100, "gain-vs-perf-ci95-%")
	b.ReportMetric(loss.Mean*100, "makespan-loss-%")
	b.ReportMetric(half(loss)*100, "makespan-loss-ci95-%")
}

func BenchmarkFigure6LowHeterogeneity(b *testing.B) {
	res := metricRun(b, cluster.LowHeterogeneityPlatform())
	for _, p := range res.Points {
		b.ReportMetric(p.Makespan, p.Label+"-makespan-s")
		b.ReportMetric(p.EnergyJ/1e6, p.Label+"-MJ")
	}
}

func BenchmarkFigure7HighHeterogeneity(b *testing.B) {
	res := metricRun(b, cluster.HighHeterogeneityPlatform())
	for _, p := range res.Points {
		b.ReportMetric(p.Makespan, p.Label+"-makespan-s")
		b.ReportMetric(p.EnergyJ/1e6, p.Label+"-MJ")
	}
	b.ReportMetric(res.TradeoffQuality(), "gp-tradeoff-quality")
}

func BenchmarkTable3SimulatedClusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, ok := cluster.Spec("sim1"); !ok {
			b.Fatal("sim1 missing")
		}
		if _, ok := cluster.Spec("sim2"); !ok {
			b.Fatal("sim2 missing")
		}
	}
	s1, _ := cluster.Spec("sim1")
	s2, _ := cluster.Spec("sim2")
	b.ReportMetric(s1.IdleW, "sim1-idle-W")
	b.ReportMetric(s1.PeakW, "sim1-peak-W")
	b.ReportMetric(s2.IdleW, "sim2-idle-W")
	b.ReportMetric(s2.PeakW, "sim2-peak-W")
}

// --- Figure 8: provisioning plan codec -------------------------------

func BenchmarkFigure8PlanRoundTrip(b *testing.B) {
	store := experiments.PaperEventTimeline()
	plan := store.Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := plan.MarshalIndent()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := provision.ParsePlan(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.Len()), "records")
}

// --- Figure 9: adaptive provisioning ---------------------------------

func BenchmarkFigure9AdaptiveProvisioning(b *testing.B) {
	var res *sim.AdaptiveResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunAdaptive(experiments.DefaultAdaptiveConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Completed), "tasks")
	b.ReportMetric(res.EnergyJ/1e6, "energy-MJ")
	b.ReportMetric(float64(res.Boots), "boots")
	b.ReportMetric(res.DrainLagS, "drain-lag-s")
}

// --- Ablations (DESIGN.md §5) ----------------------------------------

// Dynamic vs static estimation: the paper argues static benchmarks go
// stale; this ablation compares the two approaches head to head.
// BenchmarkExtensionConsolidation compares the §II-B related-work
// baseline (load concentration + idle shutdown, refs [11][12]) against
// the paper's always-on policies on an under-utilized workload — the
// regime where GreenPerf's idle floor loses to shutdowns.
func BenchmarkExtensionConsolidation(b *testing.B) {
	var res *experiments.ConsolidationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunConsolidation(experiments.DefaultConsolidationConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	pw, _ := res.Run("POWER")
	cons, _ := res.Run("CONSOLIDATION")
	if cons.EnergyJ >= pw.EnergyJ {
		b.Fatalf("consolidation %.0f J not below always-on POWER %.0f J", cons.EnergyJ, pw.EnergyJ)
	}
	b.ReportMetric(pw.EnergyJ, "always-on-power-J")
	b.ReportMetric(cons.EnergyJ, "consolidation-J")
	b.ReportMetric((pw.EnergyJ-cons.EnergyJ)/pw.EnergyJ*100, "saving-%")
	b.ReportMetric(cons.Makespan-pw.Makespan, "makespan-cost-s")
	b.ReportMetric(float64(cons.Boots), "boots")
	b.ReportMetric(float64(cons.Shutdowns), "shutdowns")
}

// BenchmarkPreemptionStudy runs the checkpoint/restart study (CI's
// bench smoke step executes it once): preemption must out-earn the
// express-boot baseline at no more energy with zero victim breaches.
func BenchmarkPreemptionStudy(b *testing.B) {
	var res *experiments.PreemptionResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunPreemptionStudy(experiments.DefaultPreemptionConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	boot, _ := res.Run(experiments.PreemptRunExpressBoot)
	pre, _ := res.Run(experiments.PreemptRunPreemption)
	if pre.NetUSD() <= boot.NetUSD() || pre.EnergyJ > boot.EnergyJ || pre.VictimMisses != 0 {
		b.Fatalf("preemption claim broken: net $%.2f vs $%.2f, energy %.0f vs %.0f J, %d victim misses",
			pre.NetUSD(), boot.NetUSD(), pre.EnergyJ, boot.EnergyJ, pre.VictimMisses)
	}
	b.ReportMetric(pre.NetUSD()-boot.NetUSD(), "net-gain-$")
	b.ReportMetric((1-pre.EnergyJ/boot.EnergyJ)*100, "energy-saving-%")
	b.ReportMetric(float64(pre.Preemptions), "preemptions")
	b.ReportMetric(pre.RedoneOps/9e9, "redone-work-s")
}

// BenchmarkExtensionHeterogeneityContinuum generalizes Figures 6-7
// from two published platform points to a continuum: the G/GP/P
// trade-off space must widen with hardware diversity (the paper:
// GreenPerf "strongly relies on the heterogeneity of servers").
func BenchmarkExtensionHeterogeneityContinuum(b *testing.B) {
	spreads := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	var res *experiments.HeterogeneityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunHeterogeneitySweep(experiments.DefaultHeterogeneityConfig(), spreads)
		if err != nil {
			b.Fatal(err)
		}
	}
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	if res.Fit.Slope <= 0 {
		b.Fatalf("trade-off space does not grow with heterogeneity: slope %v", res.Fit.Slope)
	}
	b.ReportMetric(first.EnergySpread, "energy-spread-low-%")
	b.ReportMetric(last.EnergySpread, "energy-spread-high-%")
	b.ReportMetric(res.Fit.Slope, "spread-per-het-index-%")
	b.ReportMetric(res.Fit.R2, "fit-r2")
	b.ReportMetric(last.Quality, "gp-quality-high-het")
}

// BenchmarkAblationIdleTimeout sweeps the consolidation controller's
// idle timeout: too short thrashes boots, too long wastes idle watts.
func BenchmarkAblationIdleTimeout(b *testing.B) {
	timeouts := []float64{60, 300, 600, 1800}
	type row struct {
		timeout float64
		energy  float64
		boots   int
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, to := range timeouts {
			cfg := experiments.DefaultConsolidationConfig()
			cfg.IdleTimeout = to
			res, err := experiments.RunConsolidation(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cons, _ := res.Run("CONSOLIDATION")
			rows = append(rows, row{to, cons.EnergyJ, cons.Boots})
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.energy, fmt.Sprintf("J-timeout-%.0fs", r.timeout))
		b.ReportMetric(float64(r.boots), fmt.Sprintf("boots-timeout-%.0fs", r.timeout))
	}
}

func BenchmarkAblationStaticVsDynamic(b *testing.B) {
	var dynamic, static *experiments.PlacementResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultPlacementConfig()
		cfg.ReqsPerCore = 5
		dynamic, err = experiments.RunPlacement(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Static = true
		static, err = experiments.RunPlacement(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(dynamic.Runs[sched.Power].EnergyJ/1e6, "dynamic-power-MJ")
	b.ReportMetric(static.Runs[sched.Power].EnergyJ/1e6, "static-power-MJ")
}

// Exploration (learning) phase on/off under the POWER policy.
func BenchmarkAblationExploration(b *testing.B) {
	platform := cluster.PaperPlatform()
	tasks, err := workload.BurstThenRate{Total: 300, Burst: 30, Rate: 0.45, Ops: 9e11}.Tasks()
	if err != nil {
		b.Fatal(err)
	}
	run := func(explore bool) *sim.Result {
		res, err := sim.Run(sim.Config{
			Platform: platform, Policy: sched.New(sched.Power), Tasks: tasks,
			Explore: explore, Contention: 0.08, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var with, without *sim.Result
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(with.EnergyJ/1e6, "explore-MJ")
	b.ReportMetric(without.EnergyJ/1e6, "no-explore-MJ")
	b.ReportMetric(float64(without.PerClusterTasks["sagittaire"]), "no-explore-sagittaire-tasks")
}

// Overload spill threshold: queue cap 1×cores vs 2×cores.
func BenchmarkAblationQueueFactor(b *testing.B) {
	platform := cluster.PaperPlatform()
	tasks, err := workload.BurstThenRate{Total: 600, Burst: 200, Rate: 1.2, Ops: 9e11}.Tasks()
	if err != nil {
		b.Fatal(err)
	}
	run := func(qf float64) *sim.Result {
		res, err := sim.Run(sim.Config{
			Platform: platform, Policy: sched.New(sched.Power), Tasks: tasks,
			Explore: true, QueueFactor: qf, Contention: 0.08, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var tight, loose *sim.Result
	for i := 0; i < b.N; i++ {
		tight = run(1)
		loose = run(2)
	}
	b.ReportMetric(tight.Makespan, "qf1-makespan-s")
	b.ReportMetric(loose.Makespan, "qf2-makespan-s")
	b.ReportMetric(tight.EnergyJ/1e6, "qf1-MJ")
	b.ReportMetric(loose.EnergyJ/1e6, "qf2-MJ")
}

// Score exponent sweep across the Eq. 2 preference range: how often
// the Eq. 6 ranking flips between the fastest and leanest server.
func BenchmarkAblationScoreExponentSweep(b *testing.B) {
	flips := 0
	for i := 0; i < b.N; i++ {
		flips = 0
		prev := ""
		for p := -0.9; p <= 0.9001; p += 0.05 {
			ranked := rankByScore(p)
			if prev != "" && ranked != prev {
				flips++
			}
			prev = ranked
		}
	}
	b.ReportMetric(float64(flips), "ranking-flips")
}

func rankByScore(p float64) string {
	policy := sched.ScorePolicy{Ops: 1e12, Pref: core.UserPref(p)}
	a := scoreVec("fast", 10e9, 400)
	bv := scoreVec("lean", 2e9, 60)
	if policy.Less(a, bv) {
		return "fast"
	}
	return "lean"
}

func scoreVec(name string, flops, watts float64) *estvec.Vector {
	return estvec.New(name).
		Set(estvec.TagFlops, flops).
		Set(estvec.TagPowerW, watts).
		SetBool(estvec.TagActive, true)
}

// Progressive vs simultaneous boot ramp: the paper staggers starts to
// avoid heat peaks; compare the peak 10-minute average power during
// the ramp.
func BenchmarkAblationProgressiveVsSimultaneousBoot(b *testing.B) {
	run := func(stepUp int) *sim.AdaptiveResult {
		store := provision.NewStore()
		store.Put(provision.Record{Value: 0, Cost: 1.0, Temperature: 22})
		store.Put(provision.Record{Value: 3600, Cost: 0.2, Temperature: 22})
		planner := provision.NewPlanner(12, 2)
		planner.StepUp = stepUp
		res, err := sim.RunAdaptive(sim.AdaptiveConfig{
			Platform: cluster.PaperPlatform(),
			Planner:  planner,
			Store:    store,
			Policy:   sched.New(sched.GreenPerf),
			TaskOps:  1.8e12,
			Horizon:  7200,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var prog, simu *sim.AdaptiveResult
	for i := 0; i < b.N; i++ {
		prog = run(2)
		simu = run(12)
	}
	b.ReportMetric(maxRampSlope(prog), "progressive-max-W-per-10min")
	b.ReportMetric(maxRampSlope(simu), "simultaneous-max-W-per-10min")
}

// maxRampSlope returns the largest 10-minute increase of average power
// — the "heat peak" proxy the progressive start avoids.
func maxRampSlope(res *sim.AdaptiveResult) float64 {
	maxDelta := 0.0
	for i := 1; i < len(res.Samples); i++ {
		d := res.Samples[i].AvgW - res.Samples[i-1].AvgW
		if d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta
}

// DVFS vs shutdown (related work, ref [8]): the best DVFS saving on a
// real node profile vs an energy-proportional strawman.
func BenchmarkAblationDVFSvsShutdown(b *testing.B) {
	taurus, _ := cluster.Spec("taurus")
	taurus.Name = "t"
	proportional := taurus
	proportional.IdleW, proportional.ActivationW, proportional.OffW = 0, 0, 0
	var real, strawman float64
	var err error
	for i := 0; i < b.N; i++ {
		real, err = dvfs.DiminishingReturns(taurus, 9e11, 500, dvfs.DefaultLevels())
		if err != nil {
			b.Fatal(err)
		}
		strawman, err = dvfs.DiminishingReturns(proportional, 9e11, 500, dvfs.DefaultLevels())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(real*100, "real-node-saving-%")
	b.ReportMetric(strawman*100, "proportional-saving-%")
}

// Thermal feedback: adaptive provisioning with measured (endogenous)
// temperature instead of injected events.
func BenchmarkAblationThermalFeedback(b *testing.B) {
	run := func() *sim.AdaptiveResult {
		store := provision.NewStore()
		store.Put(provision.Record{Value: 0, Cost: 0.2, Temperature: 21})
		planner := provision.NewPlanner(12, 4)
		planner.MinNodes = 2
		d, err := thermal.UniformRack(12, 4, 0.0055, 0.001, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		mon, err := thermal.NewMonitor(21, d, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunAdaptive(sim.AdaptiveConfig{
			Platform: cluster.PaperPlatform(),
			Planner:  planner,
			Store:    store,
			Policy:   sched.New(sched.GreenPerf),
			TaskOps:  1.8e12,
			Horizon:  200 * 60,
			Thermal:  mon,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var res *sim.AdaptiveResult
	for i := 0; i < b.N; i++ {
		res = run()
	}
	heatTicks := 0
	for _, d := range res.Decisions {
		if d.RuleNow == "heat" {
			heatTicks++
		}
	}
	b.ReportMetric(float64(heatTicks), "heat-rule-ticks")
	b.ReportMetric(res.EnergyJ/1e6, "energy-MJ")
}

// Budget steering: energy consumed with and without the budget policy
// on the same workload.
func BenchmarkAblationBudgetSteering(b *testing.B) {
	platform := cluster.PaperPlatform()
	tasks, err := workload.BurstThenRate{Total: 300, Burst: 30, Rate: 0.45, Ops: 9e11}.Tasks()
	if err != nil {
		b.Fatal(err)
	}
	var unconstrained, constrained *sim.Result
	for i := 0; i < b.N; i++ {
		unconstrained, err = sim.Run(sim.Config{
			Platform: platform, Policy: sched.New(sched.Performance), Tasks: tasks,
			Explore: true, Contention: 0.08, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		// A task-energy budget at 70% of the unconstrained per-task
		// spend forces the policy toward efficiency as completions
		// charge the tracker.
		taskEnergy := 0.0
		for _, rec := range unconstrained.Records {
			taskEnergy += rec.MeanPowerW * rec.Exec()
		}
		tr, err2 := budget.NewTracker(taskEnergy*0.7, unconstrained.Makespan)
		if err2 != nil {
			b.Fatal(err2)
		}
		now := 0.0
		pol, err2 := budget.NewPolicy(tr, core.PrefMaxPerformance, 9e11, func() float64 { return now })
		if err2 != nil {
			b.Fatal(err2)
		}
		constrained, err = sim.Run(sim.Config{
			Platform: platform, Policy: pol, Tasks: tasks,
			Explore: true, Contention: 0.08, Seed: 1,
			Modules: []sim.Module{
				&sim.HookModule{OnFinishFunc: func(rec sim.TaskRecord) {
					now = rec.Finish
					tr.Charge(rec.Finish, rec.MeanPowerW*rec.Exec())
				}},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(unconstrained.EnergyJ/1e6, "unconstrained-MJ")
	b.ReportMetric(constrained.EnergyJ/1e6, "budget-steered-MJ")
}
