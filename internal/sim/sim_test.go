package sim

import (
	"math"
	"sort"
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/sched"
	"greensched/internal/workload"
)

func smallPlatform() *cluster.Platform {
	return cluster.MustPlatform(cluster.NewNodes("taurus", 2), cluster.NewNodes("sagittaire", 2))
}

func tasks(n int, ops, rate float64) []workload.Task {
	ts, err := workload.BurstThenRate{Total: n, Burst: min(n, 4), Rate: rate, Ops: ops}.Tasks()
	if err != nil {
		panic(err)
	}
	return ts
}

// runRecorded runs cfg with a RecordModule stacked last, for the tests
// that read Result.Records.
func runRecorded(cfg Config) (*Result, error) {
	cfg.Modules = append(cfg.Modules[:len(cfg.Modules):len(cfg.Modules)], &RecordModule{})
	return Run(cfg)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRunCompletesAllTasks(t *testing.T) {
	res, err := runRecorded(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(40, 1e11, 2),
		Explore:  true,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 40 {
		t.Fatalf("completed %d, want 40", res.Completed)
	}
	if len(res.Records) != 40 {
		t.Fatalf("records %d, want 40", len(res.Records))
	}
	if res.Makespan <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("degenerate result: makespan=%v energy=%v", res.Makespan, res.EnergyJ)
	}
	total := 0
	for _, c := range res.PerNodeTasks {
		total += c
	}
	if total != 40 {
		t.Fatalf("per-node counts sum to %d", total)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Random),
		Tasks:    tasks(60, 1e11, 2),
		Seed:     42,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.EnergyJ != b.EnergyJ {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.Makespan, a.EnergyJ, b.Makespan, b.EnergyJ)
	}
	for name, c := range a.PerNodeTasks {
		if b.PerNodeTasks[name] != c {
			t.Fatalf("per-node counts diverged at %s", name)
		}
	}
	// Different seed must (generically) change RANDOM placement.
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for name, n := range a.PerNodeTasks {
		if c.PerNodeTasks[name] != n {
			same = false
		}
	}
	if same {
		t.Log("warning: different seed produced identical placement (possible but unlikely)")
	}
}

func TestTaskAccountingInvariants(t *testing.T) {
	res, err := runRecorded(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Performance),
		Tasks:    tasks(50, 2e11, 1),
		Explore:  true,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Start < rec.Submit {
			t.Fatalf("task %d started before submission", rec.ID)
		}
		if rec.Finish <= rec.Start {
			t.Fatalf("task %d has non-positive exec time", rec.ID)
		}
		if rec.Finish > res.Makespan+1e-9 {
			t.Fatalf("task %d finished after makespan", rec.ID)
		}
		if rec.MeanPowerW <= 0 {
			t.Fatalf("task %d has no measured power", rec.ID)
		}
	}
}

func TestEnergyMatchesPowerBounds(t *testing.T) {
	p := smallPlatform()
	res, err := Run(Config{
		Platform: p,
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(30, 1e11, 2),
		Explore:  true,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	idleFloor, peakCeil := 0.0, 0.0
	for _, n := range p.Nodes {
		idleFloor += n.IdleW
		peakCeil += n.PeakW
	}
	if res.EnergyJ < idleFloor*res.Makespan {
		t.Fatalf("energy %v below idle floor %v", res.EnergyJ, idleFloor*res.Makespan)
	}
	if res.EnergyJ > peakCeil*res.Makespan {
		t.Fatalf("energy %v above peak ceiling %v", res.EnergyJ, peakCeil*res.Makespan)
	}
	// Per-node and per-cluster energies are consistent partitions.
	sumNode, sumCluster := 0.0, 0.0
	for _, e := range res.PerNodeEnergyJ {
		sumNode += e
	}
	for _, e := range res.PerClusterEnergy {
		sumCluster += e
	}
	if math.Abs(sumNode-res.EnergyJ) > 1e-6 || math.Abs(sumCluster-res.EnergyJ) > 1e-6 {
		t.Fatalf("energy partitions inconsistent: %v vs %v vs %v", sumNode, sumCluster, res.EnergyJ)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	// Overload heavily, then verify per-node concurrency from records.
	res, err := runRecorded(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(200, 2e11, 10),
		Explore:  true,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := smallPlatform()
	type iv struct{ at, delta float64 }
	perNode := map[string][]iv{}
	for _, rec := range res.Records {
		perNode[rec.Server] = append(perNode[rec.Server],
			iv{rec.Start, 1}, iv{rec.Finish, -1})
	}
	for name, ivs := range perNode {
		idx := p.Find(name)
		cores := p.Nodes[idx].Cores
		// Sweep with finishes ordered before starts at equal times.
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].at != ivs[j].at {
				return ivs[i].at < ivs[j].at
			}
			return ivs[i].delta < ivs[j].delta
		})
		cur, peak := 0, 0
		for _, e := range ivs {
			cur += int(e.delta)
			if cur > peak {
				peak = cur
			}
		}
		if peak > cores {
			t.Fatalf("node %s ran %d concurrent tasks with %d cores", name, peak, cores)
		}
	}
}

func TestSlotsPerNodeLimit(t *testing.T) {
	// §IV-B: each server limited to one task.
	res, err := runRecorded(Config{
		Platform:     smallPlatform(),
		Policy:       sched.New(sched.Power),
		Tasks:        tasks(20, 1e11, 5),
		SlotsPerNode: 1,
		Explore:      true,
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify no overlapping executions per node.
	perNode := map[string][]TaskRecord{}
	for _, rec := range res.Records {
		perNode[rec.Server] = append(perNode[rec.Server], rec)
	}
	for name, recs := range perNode {
		for i := range recs {
			for j := i + 1; j < len(recs); j++ {
				a, b := recs[i], recs[j]
				if a.Start < b.Finish-1e-9 && b.Start < a.Finish-1e-9 {
					t.Fatalf("node %s overlapped tasks %d and %d", name, a.ID, b.ID)
				}
			}
		}
	}
}

func TestLearningPhaseTouchesEveryNode(t *testing.T) {
	// With exploration on, every node must execute at least one task
	// even under a policy that would otherwise concentrate load.
	res, err := Run(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(80, 1e11, 2),
		Explore:  true,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range smallPlatform().Nodes {
		if res.PerNodeTasks[n.Name] == 0 {
			t.Fatalf("node %s never explored", n.Name)
		}
	}
}

func TestStaticCalibrationSkipsLearning(t *testing.T) {
	res, err := Run(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(40, 1e11, 2),
		Static:   true,
		Explore:  true, // irrelevant: everything is known from the benchmark
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Static POWER placement concentrates on taurus (lower measured
	// watts at 1-core utilization) except under overload.
	taurus := res.PerClusterTasks["taurus"]
	sag := res.PerClusterTasks["sagittaire"]
	if taurus <= sag {
		t.Fatalf("static POWER should favor taurus: taurus=%d sagittaire=%d", taurus, sag)
	}
}

func TestCrashResubmitsTasks(t *testing.T) {
	res, err := runRecorded(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Performance),
		Tasks:    tasks(40, 5e11, 2),
		Explore:  true,
		Seed:     8,
		Crashes:  map[string]float64{"taurus-0": 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 40 {
		t.Fatalf("completed %d after crash, want 40", res.Completed)
	}
	if res.Crashed == 0 {
		t.Fatal("crash at t=30 under load should have killed work")
	}
	// The crashed node must execute nothing after the crash.
	for _, rec := range res.Records {
		if rec.Server == "taurus-0" && rec.Start >= 30 {
			t.Fatalf("crashed node ran task %d at %v", rec.ID, rec.Start)
		}
	}
	resub := 0
	for _, rec := range res.Records {
		resub += rec.Resubmits
	}
	if resub == 0 {
		t.Fatal("no task recorded a resubmission")
	}
}

func TestCrashUnknownNodeRejected(t *testing.T) {
	_, err := Run(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(4, 1e11, 1),
		Crashes:  map[string]float64{"nope": 10},
	})
	if err == nil {
		t.Fatal("unknown crash node accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{Platform: smallPlatform(), Policy: sched.New(sched.Power), Tasks: tasks(2, 1e9, 1)}
	if _, err := NewRunner(good); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Policy: sched.New(sched.Power), Tasks: tasks(2, 1e9, 1)},
		{Platform: smallPlatform(), Tasks: tasks(2, 1e9, 1)},
		{Platform: smallPlatform(), Policy: sched.New(sched.Power)},
	}
	for i, cfg := range bad {
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Malformed task.
	withBadTask := good
	withBadTask.Tasks = []workload.Task{{ID: 0, Ops: -1}}
	if _, err := NewRunner(withBadTask); err == nil {
		t.Error("malformed task accepted")
	}
}

func TestMeanWait(t *testing.T) {
	var r Result
	if r.MeanWait() != 0 {
		t.Fatal("empty MeanWait should be 0")
	}
	// One slot, two 10-second tasks: the second, submitted at 1, waits
	// until the first finishes at 10.
	spec := cluster.NewNodes("taurus", 1)[0]
	ops := 10 * spec.FlopsPerCore
	res, err := runRecorded(Config{
		Platform:     cluster.MustPlatform([]cluster.NodeSpec{spec}),
		Policy:       sched.New(sched.Power),
		Static:       true,
		SlotsPerNode: 1,
		Tasks:        []workload.Task{{ID: 0, Ops: ops}, {ID: 1, Ops: ops, Submit: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MeanWait(); got != 4.5 {
		t.Fatalf("MeanWait = %v, want 4.5", got)
	}
	if res.Records[1].Wait() != 9 || res.Records[1].Exec() != 10 {
		t.Fatalf("second record %+v: want a 9 s wait and a 10 s run", res.Records[1])
	}
}

func TestPolicyShapesPlacement(t *testing.T) {
	// The three §IV-A policies must produce distinct placements with
	// the expected winners on a taurus(lean)+sagittaire(hungry) mix.
	// Moderate load so policies can be choosy.
	mk := func(kind sched.Kind, seed int64) *Result {
		res, err := Run(Config{
			Platform: smallPlatform(),
			Policy:   sched.New(kind),
			Tasks:    tasks(60, 4e11, 0.4),
			Explore:  kind != sched.Random,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pw := mk(sched.Power, 1)
	pf := mk(sched.Performance, 1)

	// Both POWER and PERFORMANCE prefer taurus here (it is both
	// faster and leaner than sagittaire), so check against RANDOM.
	rd := mk(sched.Random, 1)
	if pw.PerClusterTasks["taurus"] <= rd.PerClusterTasks["taurus"] {
		t.Errorf("POWER should send more to taurus than RANDOM: %d vs %d",
			pw.PerClusterTasks["taurus"], rd.PerClusterTasks["taurus"])
	}
	if pw.EnergyJ >= rd.EnergyJ {
		t.Errorf("POWER energy %.0f should beat RANDOM %.0f", pw.EnergyJ, rd.EnergyJ)
	}
	if pf.Makespan > rd.Makespan {
		t.Errorf("PERFORMANCE makespan %.0f should not exceed RANDOM %.0f", pf.Makespan, rd.Makespan)
	}
}

func BenchmarkSimRun(b *testing.B) {
	cfg := Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(200, 1e11, 2),
		Explore:  true,
		Seed:     1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
