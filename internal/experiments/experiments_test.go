package experiments

import (
	"strings"
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/sched"
)

// The placement experiment is the paper's headline result; run it once
// and share across assertions.
var placementOnce *PlacementResult

func placement(t *testing.T) *PlacementResult {
	t.Helper()
	if placementOnce == nil {
		res, err := RunPlacement(DefaultPlacementConfig())
		if err != nil {
			t.Fatal(err)
		}
		placementOnce = res
	}
	return placementOnce
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	r := placement(t)
	rd := r.kind(sched.Random)
	pw := r.kind(sched.Power)
	pf := r.kind(sched.Performance)

	// Energy ordering: POWER < PERFORMANCE < RANDOM.
	if !(pw.EnergyJ < pf.EnergyJ && pf.EnergyJ < rd.EnergyJ) {
		t.Fatalf("energy ordering wrong: POWER=%.0f PERFORMANCE=%.0f RANDOM=%.0f",
			pw.EnergyJ, pf.EnergyJ, rd.EnergyJ)
	}
	// Makespan ordering: PERFORMANCE < POWER < RANDOM.
	if !(pf.Makespan < pw.Makespan && pw.Makespan < rd.Makespan) {
		t.Fatalf("makespan ordering wrong: PERFORMANCE=%.0f POWER=%.0f RANDOM=%.0f",
			pf.Makespan, pw.Makespan, rd.Makespan)
	}

	gainRandom, gainPerf, loss := r.Headline()
	// Paper: 25% energy gain vs RANDOM; accept the same regime.
	if gainRandom < 0.15 || gainRandom > 0.35 {
		t.Errorf("energy gain vs RANDOM = %.1f%%, want ≈25%% (15-35%%)", gainRandom*100)
	}
	// Paper: up to 19% vs PERFORMANCE.
	if gainPerf < 0.08 || gainPerf > 0.25 {
		t.Errorf("energy gain vs PERFORMANCE = %.1f%%, want ≈19%% (8-25%%)", gainPerf*100)
	}
	// Paper: performance loss of up to 6%.
	if loss < 0 || loss > 0.06 {
		t.Errorf("makespan loss = %.1f%%, want (0,6%%]", loss*100)
	}
	// Makespans land in the paper's regime (≈2,200-2,400 s).
	for _, res := range r.Runs {
		if res.Makespan < 1800 || res.Makespan > 2800 {
			t.Errorf("%s makespan %.0f outside the paper regime", res.Name, res.Makespan)
		}
	}
}

func TestFigure2PowerPrefersTaurus(t *testing.T) {
	r := placement(t)
	res := r.kind(sched.Power)
	taurus := res.PerClusterTasks["taurus"]
	orion := res.PerClusterTasks["orion"]
	sag := res.PerClusterTasks["sagittaire"]
	if !(taurus > orion && orion > sag) {
		t.Fatalf("POWER distribution: taurus=%d orion=%d sagittaire=%d, want taurus-dominant", taurus, orion, sag)
	}
	// "Most jobs are computed by Taurus nodes".
	if float64(taurus) < 0.6*float64(res.Completed) {
		t.Errorf("taurus share %.0f%%, want majority", 100*float64(taurus)/float64(res.Completed))
	}
	// Learning phase: every node computed at least one task.
	for _, n := range r.Platform.Nodes {
		if res.PerNodeTasks[n.Name] == 0 {
			t.Errorf("node %s never used (learning phase missing)", n.Name)
		}
	}
}

func TestFigure3PerformancePrefersOrion(t *testing.T) {
	r := placement(t)
	res := r.kind(sched.Performance)
	if res.PerClusterTasks["orion"] <= res.PerClusterTasks["taurus"] {
		t.Fatalf("PERFORMANCE should prefer orion: %v", res.PerClusterTasks)
	}
	if float64(res.PerClusterTasks["orion"]) < 0.6*float64(res.Completed) {
		t.Error("orion should execute the majority under PERFORMANCE")
	}
}

func TestFigure4RandomUsesEverythingSagittaireLeast(t *testing.T) {
	r := placement(t)
	res := r.kind(sched.Random)
	for _, n := range r.Platform.Nodes {
		if res.PerNodeTasks[n.Name] == 0 {
			t.Errorf("RANDOM left node %s unused", n.Name)
		}
	}
	// "Sagittaire nodes compute less tasks than other nodes" (slower,
	// less frequently available).
	sagPerNode := float64(res.PerClusterTasks["sagittaire"]) / 4
	taurusPerNode := float64(res.PerClusterTasks["taurus"]) / 4
	if sagPerNode >= taurusPerNode {
		t.Fatalf("sagittaire per-node count %.0f should be lowest (taurus %.0f)", sagPerNode, taurusPerNode)
	}
}

func TestFigure5ClusterEnergyShape(t *testing.T) {
	r := placement(t)
	// RANDOM keeps all clusters active: each cluster burns more under
	// RANDOM than under the policy that avoids it.
	rd := r.kind(sched.Random).PerClusterEnergy
	pw := r.kind(sched.Power).PerClusterEnergy
	if rd["orion"] <= pw["orion"] {
		t.Errorf("orion energy under RANDOM (%.0f) should exceed POWER (%.0f)", rd["orion"], pw["orion"])
	}
	if rd["sagittaire"] <= pw["sagittaire"] {
		t.Errorf("sagittaire energy under RANDOM should exceed POWER")
	}
	// Every cluster consumed something (idle floor) under every policy.
	for _, run := range r.Runs {
		for _, cl := range r.Platform.Clusters() {
			if run.PerClusterEnergy[cl] <= 0 {
				t.Errorf("%s: cluster %s has no energy", run.Name, cl)
			}
		}
	}
}

func TestPlacementRenderArtifacts(t *testing.T) {
	r := placement(t)
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table I.", "Table II.", "Figure 2.", "Figure 3.", "Figure 4.", "Figure 5.",
		"Makespan (s)", "Energy (J)", "POWER energy gain vs RANDOM",
		"taurus-0", "orion-3", "sagittaire-2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("placement report missing %q", want)
		}
	}
}

func TestPlacementStaticAblationStillGreen(t *testing.T) {
	cfg := DefaultPlacementConfig()
	cfg.Static = true
	cfg.ReqsPerCore = 3 // keep the ablation quick
	res, err := RunPlacement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.kind(sched.Power).EnergyJ >= res.kind(sched.Random).EnergyJ {
		t.Error("static POWER should still beat RANDOM on energy")
	}
}

// metricPoints returns a metric study's G, GP and P runs.
func metricPoints(t *testing.T, res *MetricResult) (g, gp, p Run) {
	t.Helper()
	g, ok1 := res.Run("G")
	gp, ok2 := res.Run("GP")
	p, ok3 := res.Run("P")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing points")
	}
	return g, gp, p
}

func TestMetricStudyLowHeterogeneity(t *testing.T) {
	res, err := RunMetricStudy(DefaultMetricConfig(), cluster.LowHeterogeneityPlatform())
	if err != nil {
		t.Fatal(err)
	}
	g, gp, p := metricPoints(t, res)
	// Figure 6's message: with two similar server types GP collapses
	// onto G — the ratio cannot trade anything off.
	if gp.EnergyJ != g.EnergyJ || gp.Makespan != g.Makespan {
		t.Errorf("low heterogeneity: GP (%.0f,%.0f) should coincide with G (%.0f,%.0f)",
			gp.Makespan, gp.EnergyJ, g.Makespan, g.EnergyJ)
	}
	// P pays more energy for (at best) marginal time gains.
	if p.EnergyJ <= gp.EnergyJ {
		t.Error("PERFORMANCE should cost more energy than GP")
	}
}

func TestMetricStudyHighHeterogeneity(t *testing.T) {
	res, err := RunMetricStudy(DefaultMetricConfig(), cluster.HighHeterogeneityPlatform())
	if err != nil {
		t.Fatal(err)
	}
	g, gp, p := metricPoints(t, res)
	// Figure 7's message: GP achieves "a better tradeoff between POWER
	// and PERFORMANCE" — faster than G, greener than P.
	if gp.Makespan >= g.Makespan {
		t.Errorf("GP makespan %.0f should beat G %.0f (G wastes time on slow cheap nodes)",
			gp.Makespan, g.Makespan)
	}
	if gp.EnergyJ >= p.EnergyJ {
		t.Errorf("GP energy %.0f should beat P %.0f", gp.EnergyJ, p.EnergyJ)
	}
	if q := res.TradeoffQuality(); q > 0.5 {
		t.Errorf("tradeoff quality %.2f, want ≤0.5 (closer to ideal corner)", q)
	}
	// GP must not be dominated by the RANDOM envelope's best corner.
	if env := res.Random; gp.Makespan > env.MinX && gp.Makespan <= env.MaxX &&
		gp.EnergyJ > env.MinY && gp.EnergyJ <= env.MaxY {
		t.Log("note: GP inside RANDOM envelope (acceptable but unusual)")
	}
}

func TestMetricStudyValidation(t *testing.T) {
	if _, err := RunMetricStudy(MetricConfig{}, cluster.LowHeterogeneityPlatform()); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := DefaultMetricConfig()
	cfg.RandomRuns = 0
	if _, err := RunMetricStudy(cfg, cluster.LowHeterogeneityPlatform()); err == nil {
		t.Fatal("zero RANDOM runs accepted")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	var b strings.Builder
	if err := Table3().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table III.", "sim1", "190", "230", "sim2", "160"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q:\n%s", want, out)
		}
	}
}

func TestRenderMetricStudy(t *testing.T) {
	cfg := DefaultMetricConfig()
	cfg.TasksPerClient = 20
	cfg.RandomRuns = 4
	var b strings.Builder
	if err := RenderMetricStudy(cfg, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 6.", "Figure 7.", "Table III.", "GP tradeoff quality"} {
		if !strings.Contains(out, want) {
			t.Errorf("metric report missing %q", want)
		}
	}
}

func TestAdaptiveHarness(t *testing.T) {
	res, err := RunAdaptive(DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 26 {
		t.Fatalf("samples = %d, want 26", len(res.Samples))
	}
	// Candidate trajectory summary: starts at 4, reaches 12, drops to
	// 2, recovers.
	seen12, seen2After12, recovered := false, false, false
	for _, s := range res.Samples {
		if s.Candidates == 12 {
			seen12 = true
		}
		if seen12 && s.Candidates == 2 {
			seen2After12 = true
		}
		if seen2After12 && s.Candidates > 2 {
			recovered = true
		}
	}
	if !seen12 || !seen2After12 || !recovered {
		t.Fatalf("candidate trajectory wrong: 12=%v 2-after=%v recovered=%v", seen12, seen2After12, recovered)
	}
}

func TestRenderAdaptive(t *testing.T) {
	res, err := RunAdaptive(DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RenderAdaptive(res, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Figure 8.", "<timestamp value=", "<electricity_cost>", "Figure 9.",
		"avg power (W)", "mean drain lag",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("adaptive report missing %q", want)
		}
	}
}

func TestFigure8SampleSchema(t *testing.T) {
	store := PaperEventTimeline()
	xml, err := Figure8(store, 60*60)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<temperature>", "<electricity_cost>0.8</electricity_cost>"} {
		if !strings.Contains(xml, want) {
			t.Errorf("Figure 8 sample missing %q:\n%s", want, xml)
		}
	}
	if _, err := Figure8(store, -5); err == nil {
		t.Fatal("before-first-record timestamp accepted")
	}
}
