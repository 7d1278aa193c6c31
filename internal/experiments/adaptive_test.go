package experiments

import (
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/provision"
)

func adaptiveConfig(seed int64) AdaptiveConfig {
	cfg := DefaultAdaptiveConfig()
	cfg.Seed = seed
	return cfg
}

func TestAdaptiveValidation(t *testing.T) {
	cfg := adaptiveConfig(1)
	cfg.TaskOps = 0
	if _, err := RunAdaptive(cfg); err == nil {
		t.Fatal("zero ops accepted")
	}
	cfg = adaptiveConfig(1)
	cfg.HorizonMin = -1
	if _, err := RunAdaptive(cfg); err == nil {
		t.Fatal("negative horizon accepted")
	}
	planner := PaperPlanner()
	planner.StepUp = 0
	if _, err := runAdaptive(adaptiveConfig(1), planner); err == nil {
		t.Fatal("invalid planner accepted")
	}
	cfg = adaptiveConfig(1)
	cfg.SampleWindow = 900 // 1.5 check periods
	if _, err := RunAdaptive(cfg); err == nil {
		t.Fatal("sample window off the check-period grid accepted")
	}
}

func TestAdaptiveReproducesFigure9Shape(t *testing.T) {
	res, err := RunAdaptive(adaptiveConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 26 {
		t.Fatalf("samples = %d, want 26 (every 10 min over 260)", len(res.Samples))
	}
	pool := func(minute float64) int {
		for _, s := range res.Samples {
			if s.T == minute*60 {
				return s.Candidates
			}
		}
		t.Fatalf("no sample at minute %v", minute)
		return -1
	}
	// Start: regular cost → 4 candidates.
	if got := pool(10); got != 4 {
		t.Errorf("pool at t+10 = %d, want 4", got)
	}
	// Event 1: progressive 4→6→8 reaching 8 at t+60.
	if got := pool(50); got != 6 {
		t.Errorf("pool at t+50 = %d, want 6 (progressive start)", got)
	}
	if got := pool(60); got != 8 {
		t.Errorf("pool at t+60 = %d, want 8", got)
	}
	// Event 2: all 12 nodes in use by t+120 and held through t+160.
	if got := pool(120); got != 12 {
		t.Errorf("pool at t+120 = %d, want 12", got)
	}
	if got := pool(150); got != 12 {
		t.Errorf("pool at t+150 = %d, want 12", got)
	}
	// Event 3: heat detected at t+160 → down to 2 in 3 steps.
	if got := pool(160); got != 8 {
		t.Errorf("pool at t+160 = %d, want 8 (first step down)", got)
	}
	if got := pool(180); got != 2 {
		t.Errorf("pool at t+180 = %d, want 2", got)
	}
	if got := pool(230); got != 2 {
		t.Errorf("pool at t+230 = %d, want 2 (held during heat)", got)
	}
	// Event 4: recovery ramp toward 12.
	if got := pool(250); got <= 2 {
		t.Errorf("pool at t+250 = %d, want recovery above 2", got)
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Candidates <= pool(230) {
		t.Error("pool must be re-ramping at the end of the run")
	}
}

func TestAdaptivePowerTracksPool(t *testing.T) {
	res, err := RunAdaptive(adaptiveConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	byMinute := map[float64]AdaptiveSample{}
	for _, s := range res.Samples {
		byMinute[s.T/60] = s
	}
	// Power while 12 nodes run (t+150) must exceed power with 4
	// candidates (t+30) and power during the heat trough (t+230).
	if byMinute[150].AvgW <= byMinute[30].AvgW {
		t.Errorf("full-platform draw %.0f W should exceed 4-node draw %.0f W",
			byMinute[150].AvgW, byMinute[30].AvgW)
	}
	if byMinute[150].AvgW <= byMinute[230].AvgW {
		t.Errorf("full-platform draw %.0f W should exceed heat-trough draw %.0f W",
			byMinute[150].AvgW, byMinute[230].AvgW)
	}
	// The energy drop lags the candidate drop: at the first step down
	// (t+160) draw is still near the full-platform level.
	if byMinute[170].AvgW >= byMinute[150].AvgW {
		// By t+170 the drop must have started.
		t.Errorf("draw at t+170 (%.0f W) should be below full-platform (%.0f W)",
			byMinute[170].AvgW, byMinute[150].AvgW)
	}
	if res.DrainLagS <= 0 {
		t.Error("drain lag should be positive (tasks complete before shutdown)")
	}
}

func TestAdaptiveProgressiveBoots(t *testing.T) {
	res, err := RunAdaptive(adaptiveConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// 4→8→12→(drop)→re-ramp: boots happen in increments of ≤ StepUp
	// per planner tick, so the total count is bounded but non-zero.
	if res.Boots == 0 {
		t.Fatal("no boots recorded")
	}
	// Pool never exceeds the platform and never goes below MinNodes
	// after the start.
	for _, d := range res.Decisions {
		if d.Pool > 12 || d.Pool < 2 {
			t.Fatalf("pool %d outside [2,12] at %v", d.Pool, d.At)
		}
		if d.Changed > 2 || d.Changed < -4 {
			t.Fatalf("pool step %d outside [-4,+2] at %v", d.Changed, d.At)
		}
	}
}

func TestAdaptiveClientTracksCapacity(t *testing.T) {
	res, err := RunAdaptive(adaptiveConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no tasks completed")
	}
	// While the full platform is up (t+120..160), the client should
	// keep it essentially saturated: running ≈ capacity (104 slots).
	for _, s := range res.Samples {
		m := s.T / 60
		if m >= 130 && m <= 160 && s.Running < 90 {
			t.Errorf("at t+%v only %d tasks running; closed loop should saturate ~104 slots", m, s.Running)
		}
	}
	if res.EnergyJ <= 0 {
		t.Fatal("no energy accounted")
	}
}

// TestAdaptiveShrinkWhileBootingPowersOff drops two nodes from the pool
// while they boot: once their boot completes they hold no work and no
// candidacy, so they must power off instead of idling on until the end
// of the run.
func TestAdaptiveShrinkWhileBootingPowersOff(t *testing.T) {
	planner := PaperPlanner()
	planner.CheckPeriod = 60
	store := provision.NewStore()
	// Off-peak cost grows the pool 4→6 at t+60 s, booting two orion
	// nodes (150 s); the heat record cuts it to 2 at t+120 s.
	store.Put(provision.Record{Value: 0, Cost: 0.8, Temperature: 23})
	store.Put(provision.Record{Value: 100, Cost: 0.8, Temperature: 27, Unexpected: true})
	res, err := runAdaptive(AdaptiveConfig{Store: store, TaskOps: 1.8e12, HorizonMin: 30, Seed: 1}, planner)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Candidates != 2 {
		t.Fatalf("final pool = %d, want 2", last.Candidates)
	}
	// The pool is the greenest prefix (taurus nodes); every other node
	// draws at most its off power.
	taurus, ok := cluster.Spec("taurus")
	if !ok {
		t.Fatal("no taurus spec")
	}
	bound := float64(last.Candidates) * (taurus.PeakW - taurus.OffW)
	for _, n := range cluster.PaperPlatform().Nodes {
		bound += n.OffW
	}
	if last.AvgW > bound {
		t.Errorf("final draw %.0f W above the 2-node pool's bound %.0f W: a node dropped while booting stayed on", last.AvgW, bound)
	}
}

func TestAdaptiveDeterminism(t *testing.T) {
	a, err := RunAdaptive(adaptiveConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAdaptive(adaptiveConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyJ != b.EnergyJ || a.Completed != b.Completed || len(a.Samples) != len(b.Samples) {
		t.Fatal("same seed diverged")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d diverged", i)
		}
	}
}

func BenchmarkAdaptiveRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunAdaptive(adaptiveConfig(1)); err != nil {
			b.Fatal(err)
		}
	}
}
