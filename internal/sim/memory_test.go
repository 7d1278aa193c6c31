package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/sched"
	"greensched/internal/workload"
)

// meterWatch checks, at every finish, what the finishing SED's meter
// still holds: only the 1 Hz samples from the oldest running task's
// start (or now, with nothing running) up to now.
type meterWatch struct {
	BaseModule
	t       *testing.T
	r       *Runner
	maxKept int
}

// Init implements Module.
func (w *meterWatch) Init(r *Runner) error {
	w.r = r
	return nil
}

// OnFinish implements Module.
func (w *meterWatch) OnFinish(rec TaskRecord) {
	sed := w.r.seds[w.r.cfg.Platform.Find(rec.Server)]
	_, kept := sed.meter.MeanWindow(math.Inf(-1), math.Inf(1))
	oldest := rec.Finish
	for _, rt := range sed.running {
		if rt.start < oldest {
			oldest = rt.start
		}
	}
	if span := rec.Finish - oldest; float64(kept) > span+1 {
		w.t.Fatalf("%s at %v keeps %d samples; its running windows span %v s", rec.Server, rec.Finish, kept, span)
	}
	if kept > w.maxKept {
		w.maxKept = kept
	}
}

// TestMeterRetentionBoundedByRunningWindows: at every finish a meter
// holds no more than its SED's longest running window, so the samples
// it keeps do not grow with the trace: a 40k-task run keeps no more
// than a 10k-task one, where a meter that never forgets would hold the
// whole makespan.
func TestMeterRetentionBoundedByRunningWindows(t *testing.T) {
	kept := func(n int) (int, float64) {
		tasks, err := workload.Poisson{Total: n, Rate: 0.9, Ops: 9e11, Seed: 1}.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		w := &meterWatch{t: t}
		res, err := Run(NewScenario(cluster.PaperPlatform(), tasks,
			WithPolicy(sched.New(sched.GreenPerf)), WithExplore(), WithSeed(1), WithModules(w)))
		if err != nil {
			t.Fatal(err)
		}
		return w.maxKept, res.Makespan
	}
	small, _ := kept(10_000)
	large, makespan := kept(40_000)
	t.Logf("most samples kept at a finish: %d at 10k tasks, %d at 40k (makespan %.0f s)", small, large, makespan)
	if small == 0 {
		t.Fatal("no meter kept a sample: the check saw nothing")
	}
	if large > small {
		t.Errorf("meters keep up to %d samples at 40k tasks, %d at 10k: retention grows with the trace", large, small)
	}
}

// TestIdleMeterKeepsNothing: a meter keeps no reading from a span in
// which its SED runs no task, since no window can read one. After a run
// every SED is idle, so each meter holds at most the reading at its
// last finish: the node crashed at t = 40 and the node never elected
// keep nothing from the idle hours that follow, where a meter that
// samples idle time would hold the whole makespan.
func TestIdleMeterKeepsNothing(t *testing.T) {
	const maxKept = 1
	platform := cluster.MustPlatform(cluster.NewNodes("taurus", 2), cluster.NewNodes("sagittaire", 1))
	tasks, err := workload.Poisson{Total: 300, Rate: 0.02, Ops: 9e11, Seed: 1}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Platform:    platform,
		Policy:      sched.New(sched.Power),
		Tasks:       tasks,
		Static:      true,
		Seed:        1,
		MeterNoiseW: 2,
		Crashes:     map[string]float64{"taurus-0": 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 1000 || res.PerNodeTasks["sagittaire-0"] != 0 || res.Crashed == 0 {
		t.Fatalf("makespan %.0f s, crashed %d, per-node tasks %v: want a long run with one crash and sagittaire-0 never elected",
			res.Makespan, res.Crashed, res.PerNodeTasks)
	}
	for _, sed := range r.seds {
		if _, kept := sed.meter.MeanWindow(math.Inf(-1), math.Inf(1)); kept > maxKept {
			t.Errorf("%s keeps %d samples after a %.0f s run, want at most %d", sed.node.Spec.Name, kept, res.Makespan, maxKept)
		}
	}
}

// TestArrivalIndexOrder: the kernel walks Config.Tasks through an index
// in stable (Submit, slice) order and never writes the slice, even when
// an OnArrival hook mutates the task it is handed.
func TestArrivalIndexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tasks := make([]workload.Task, 200)
	for i := range tasks {
		// Ten submit instants, so most tasks tie with others.
		tasks[i] = workload.Task{ID: i, Ops: 1e11, Submit: float64(rng.Intn(10)) * 5}
	}
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	before := slices.Clone(tasks)
	want := slices.Clone(tasks)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Submit < want[j].Submit })

	var got []int
	_, err := Run(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks,
		Seed:     1,
		Modules: []Module{&HookModule{OnArrivalFunc: func(_ float64, task *workload.Task) {
			got = append(got, task.ID)
			task.Class = "mutated"
			task.Ops *= 2
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d arrivals, want %d", len(got), len(want))
	}
	for i, task := range want {
		if got[i] != task.ID {
			t.Fatalf("arrival %d is task %d, want %d: not stable (Submit, config) order", i, got[i], task.ID)
		}
	}
	if !slices.Equal(tasks, before) {
		t.Error("Run modified Config.Tasks")
	}
}
