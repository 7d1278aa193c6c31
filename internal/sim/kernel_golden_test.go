// External test package: the composed scenarios stack budget.Module and
// consolidation.Module, both of which import sim.
package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"greensched/internal/budget"
	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/consolidation"
	"greensched/internal/core"
	"greensched/internal/obs"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// The kernel's recorded oracle: each scenario's full sim.Result
// (records, power series, rejections and ledger included) must encode
// to JSON whose sha256 matches testdata/kernel.golden.json. The digests
// were cut while a second, independent kernel (one arrival event per
// task, sort-based wait estimates) still ran beside this one, byte-equal
// on every entry; the discipline/* digests were cut on the linear-scan
// dequeue the discipline heap replaced. Regenerate only after an
// intended behaviour change:
//
//	UPDATE_GOLDEN=1 go test -run TestKernelGolden ./internal/sim/
//
// As for bench/golden, digests are compared only on the architecture
// they were cut on (elsewhere floats may differ in the last bit).

const kernelGoldenPath = "testdata/kernel.golden.json"

type kernelGolden struct {
	Arch    string            `json:"arch"`
	Digests map[string]string `json:"digests"`
}

// kernelCoverage tallies what the scenario set exercised, so the
// oracle cannot silently stop covering a kernel path. bypass and direct
// count SLA elections that may and may not ignore revoked candidacy;
// nonHead counts dequeues that served a task other than the oldest one
// waiting on its SED (a queue discipline overtaking FIFO), and
// peakQueue is the deepest single-SED backlog seen.
type kernelCoverage struct {
	crashes, preemptions, rejections, series, bypass, direct int
	nonHead, peakQueue                                       int
}

// queueWatch replays each SED's backlog from the lifecycle stream —
// elect appends, solve removes — and counts the solves that dequeued a
// task from behind the head of its SED's queue.
type queueWatch struct {
	sim.BaseModule
	cov     *kernelCoverage
	waiting map[string][]uint64 // server → elected, unstarted task IDs in election order
	at      map[uint64]string   // task ID → the server it waits on
	last    obs.Event
}

// Init implements sim.Module.
func (w *queueWatch) Init(*sim.Runner) error {
	w.waiting = map[string][]uint64{}
	w.at = map[uint64]string{}
	w.last = obs.Event{}
	return nil
}

// OnLifecycle implements sim.LifecycleObserver.
func (w *queueWatch) OnLifecycle(ev obs.Event) {
	switch ev.Event {
	case obs.EventElect:
		// A crash-migrated queued task is elected again elsewhere.
		if s, ok := w.at[ev.ID]; ok {
			w.drop(s, ev.ID)
		}
		w.waiting[ev.Server] = append(w.waiting[ev.Server], ev.ID)
		w.at[ev.ID] = ev.Server
		w.cov.peakQueue = max(w.cov.peakQueue, len(w.waiting[ev.Server]))
	case obs.EventSolve:
		// A solve straight after its own election started in a free (or
		// preempted) slot without queueing.
		queued := !(w.last.Event == obs.EventElect && w.last.ID == ev.ID)
		if i := w.drop(ev.Server, ev.ID); queued && i > 0 {
			w.cov.nonHead++
		}
	}
	w.last = ev
}

// drop removes id from server's backlog and returns where it stood.
func (w *queueWatch) drop(server string, id uint64) int {
	q := w.waiting[server]
	for i, x := range q {
		if x == id {
			w.waiting[server] = append(q[:i], q[i+1:]...)
			delete(w.at, id)
			return i
		}
	}
	return -1
}

// observe is a WrapPolicy hook stacked after the SLA module, which
// wraps exactly the elections the kernel lets bypass candidacy
// (deadline-carrying tasks) in sched.DeadlineAware.
func (c *kernelCoverage) observe(_ float64, _ workload.Task, base sched.Policy) sched.Policy {
	if _, ok := base.(*sched.DeadlineAware); ok {
		c.bypass++
	} else {
		c.direct++
	}
	return base
}

type kernelScenario struct {
	name  string
	build func(t *testing.T, cov *kernelCoverage) sim.Config
}

// goldenTasks builds a deterministic burst-then-rate workload.
func goldenTasks(t *testing.T, g workload.BurstThenRate) []workload.Task {
	t.Helper()
	tasks, err := g.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// twoSiteProfile is a two-site grid so carbon tags and emissions differ
// across clusters.
func twoSiteProfile() *carbon.Profile {
	solar := carbon.SiteProfile{Site: "solar", Signal: carbon.Diurnal{
		MeanG: 300, AmplitudeG: 250, CleanHour: 13, RenewableMin: 0.1, RenewableMax: 0.8,
	}}
	fossil := carbon.SiteProfile{Site: "fossil", Signal: carbon.Diurnal{
		MeanG: 450, AmplitudeG: 50, CleanHour: 13,
	}}
	p := carbon.MustProfile(solar)
	if err := p.SetCluster("sagittaire", fossil); err != nil {
		panic(err)
	}
	return p
}

// composedStack is the full carbon+budget+SLA+preempt+consolidation
// scenario: batch work deferred into clean windows and urgent deadline
// work bypassing them, on one slot per node. extra task streams join
// the workload.
func composedStack(t *testing.T, cov *kernelCoverage, kind sched.Kind, seed int64, extra ...[]workload.Task) sim.Config {
	t.Helper()
	profile := twoSiteProfile()
	tracker, err := budget.NewTracker(4e8, 6*3600)
	if err != nil {
		t.Fatal(err)
	}
	batch := goldenTasks(t, workload.BurstThenRate{Total: 32, Burst: 16, Rate: 0.02, Ops: 9e11, Class: sla.ClassBatch})
	urgent := goldenTasks(t, workload.BurstThenRate{Total: 16, Burst: 0, Rate: 0.01, Ops: 9e10,
		Class: sla.ClassInteractive, RelDeadline: 150})
	tasks := workload.Merge(append([][]workload.Task{batch, workload.Shift(urgent, 60)}, extra...)...)
	return sim.NewScenario(
		cluster.MustPlatform(cluster.NewNodes("taurus", 3), cluster.NewNodes("sagittaire", 3)),
		tasks,
		sim.WithPolicy(sched.New(kind)),
		sim.WithExplore(),
		sim.WithSeed(seed),
		sim.WithSlotsPerNode(1),
		sim.WithTick(300),
		sim.WithRetryEvery(510),
		sim.WithModules(
			&sim.CarbonModule{Profile: profile},
			&budget.Module{Tracker: tracker, Steer: true, Base: core.PrefNone},
			&sim.SLAModule{
				Config: &sla.Config{
					Catalog:      sla.DefaultCatalog(),
					Admission:    &sla.Admission{Margin: 1},
					Order:        sched.NewOrder(sched.EDF),
					UrgentBypass: true,
				},
				WrapDeadline: true,
			},
			&sim.PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.1}},
			&consolidation.Module{Controller: &consolidation.CarbonController{
				Profile:     profile,
				CleanG:      350,
				DirtyG:      500,
				IdleTimeout: 600,
				MinOn:       1,
				MaxDeferSec: 4 * 3600,
			}},
			&sim.HookModule{WrapPolicyFunc: cov.observe},
		),
	)
}

// disciplineStack is a deep-backlog SLA scenario for one queue
// discipline: a 2,400-task burst leaves each paper-platform SED hundreds
// deep, and the mix is built for ties — every burst task shares a
// Submit, half-size batch work carries half the value (the same value
// density), deadline-class tasks submitted together share a deadline,
// and explicit deadlines are shared across 600-second submit buckets.
// Premium batch work outranks deadline work on value density but not
// on deadline, so EDF and VALUE-DENSITY serve different tasks.
// Interactive work preempts at arrival, and an SLA-guarded controller
// checkpoints batch for at-risk queued deadline work on its ticks.
func disciplineStack(t *testing.T, cov *kernelCoverage, order sched.TaskOrder, seed int64) sim.Config {
	t.Helper()
	tasks := goldenTasks(t, workload.BurstThenRate{Total: 3000, Burst: 2400, Rate: 1, Ops: 9e11, Class: sla.ClassBatch})
	rng := rand.New(rand.NewSource(seed))
	for i := range tasks {
		switch k := rng.Intn(10); {
		case k < 2:
			tasks[i].Ops /= 2
			tasks[i].Value = 0.025 // batch density: 0.05 per 9e11
		case k < 3:
			tasks[i].Value = 1
		case k < 5:
			tasks[i].Class = sla.ClassDeadline
		case k < 6:
			tasks[i].Class = sla.ClassDeadline
			tasks[i].Deadline = math.Floor(tasks[i].Submit/600)*600 + 900
		case k < 7:
			tasks[i].Class = sla.ClassInteractive
			tasks[i].Ops /= 10
		}
	}
	return sim.NewScenario(cluster.PaperPlatform(), tasks,
		sim.WithPolicy(sched.New(sched.GreenPerf)),
		sim.WithExplore(),
		sim.WithSeed(seed),
		sim.WithTick(120),
		sim.WithModules(
			&sim.SLAModule{
				Config: &sla.Config{
					Catalog:   sla.DefaultCatalog(),
					Admission: &sla.Admission{Margin: 1},
					Order:     order,
				},
				WrapDeadline: true,
			},
			&sim.PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.1}},
			&consolidation.Module{Controller: &consolidation.Controller{
				IdleTimeout: 600, MinOn: 1, DeadlineSlackSec: 300, PreemptBatch: true,
			}},
			&queueWatch{cov: cov},
		),
	)
}

// kernelScenarios lists four hand-built scenarios, then every bundled
// policy, bare and under the module stack, on three seeds, then every
// bundled queue discipline over a deep backlog on three seeds.
func kernelScenarios() []kernelScenario {
	out := []kernelScenario{
		{"placement-greenperf", func(t *testing.T, _ *kernelCoverage) sim.Config {
			return sim.Config{
				Platform:    cluster.PaperPlatform(),
				Policy:      sched.New(sched.GreenPerf),
				Tasks:       goldenTasks(t, workload.BurstThenRate{Total: 400, Burst: 64, Rate: 4, Ops: 9e11}),
				Explore:     true,
				Seed:        1,
				ExecJitter:  0.05,
				Contention:  0.2,
				MeterNoiseW: 3,
				SampleEvery: 30,
			}
		}},
		{"random-policy", func(t *testing.T, _ *kernelCoverage) sim.Config {
			return sim.Config{
				Platform: cluster.PaperPlatform(),
				Policy:   sched.New(sched.Random),
				Tasks:    goldenTasks(t, workload.BurstThenRate{Total: 300, Burst: 32, Rate: 8, Ops: 9e11}),
				Seed:     42,
			}
		}},
		{"crash-recovery", func(t *testing.T, _ *kernelCoverage) sim.Config {
			plat := cluster.MustPlatform(cluster.NewNodes("taurus", 3), cluster.NewNodes("sagittaire", 3))
			return sim.Config{
				Platform:   plat,
				Policy:     sched.New(sched.Power),
				Tasks:      goldenTasks(t, workload.BurstThenRate{Total: 200, Burst: 48, Rate: 2, Ops: 9e11}),
				Explore:    true,
				Seed:       7,
				ExecJitter: 0.1,
				Crashes: map[string]float64{
					plat.Nodes[1].Name: 40,
					plat.Nodes[4].Name: 95,
				},
			}
		}},
		{"composed-stack", func(t *testing.T, cov *kernelCoverage) sim.Config {
			return composedStack(t, cov, sched.Carbon, 9)
		}},
	}
	kinds := []sched.Kind{sched.Random, sched.Power, sched.Performance, sched.GreenPerf,
		sched.LeastLoaded, sched.Carbon, sched.Renewable}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 3; seed++ {
			out = append(out, kernelScenario{fmt.Sprintf("bare/%s/seed%d", kind, seed), func(t *testing.T, _ *kernelCoverage) sim.Config {
				// A 300-task burst backlogs the paper platform, so the
				// kept wait-estimate heap absorbs pushes and refills.
				return sim.Config{
					Platform:    cluster.PaperPlatform(),
					Policy:      sched.New(kind),
					Tasks:       goldenTasks(t, workload.BurstThenRate{Total: 600, Burst: 300, Rate: 2, Ops: 9e11}),
					Explore:     true,
					Seed:        seed,
					MeterNoiseW: 2,
				}
			}})
			out = append(out, kernelScenario{fmt.Sprintf("composed/%s/seed%d", kind, seed), func(t *testing.T, cov *kernelCoverage) sim.Config {
				// Tight interactive work preempts; hard deadlines no node
				// can meet are rejected; noise and jitter make the seed
				// matter for every policy.
				tight := goldenTasks(t, workload.BurstThenRate{Total: 12, Burst: 4, Rate: 0.005, Ops: 9e10,
					Class: sla.ClassInteractive, RelDeadline: 30})
				infeasible := goldenTasks(t, workload.BurstThenRate{Total: 3, Burst: 0, Rate: 0.01, Ops: 9e11,
					Class: sla.ClassDeadline, RelDeadline: 50})
				cfg := composedStack(t, cov, kind, seed, workload.Shift(tight, 20), infeasible)
				cfg.MeterNoiseW = 2
				cfg.ExecJitter = 0.05
				return cfg
			}})
		}
	}
	for _, kind := range []sched.TaskOrderKind{sched.EDF, sched.ValueDensityOrder, sched.FIFO} {
		for seed := int64(1); seed <= 3; seed++ {
			out = append(out, kernelScenario{fmt.Sprintf("discipline/%s/seed%d", kind, seed), func(t *testing.T, cov *kernelCoverage) sim.Config {
				return disciplineStack(t, cov, sched.NewOrder(kind), seed)
			}})
		}
	}
	return out
}

// TestKernelGolden runs every scenario and compares its Result digest
// with the recorded oracle; UPDATE_GOLDEN=1 rewrites the oracle.
func TestKernelGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	var golden kernelGolden
	if !update {
		data, err := os.ReadFile(kernelGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("%s: %v", kernelGoldenPath, err)
		}
	}
	compare := !update && golden.Arch == runtime.GOARCH
	got := map[string]string{}
	var cov kernelCoverage
	scenarios := kernelScenarios()
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			res, err := sim.Run(sc.build(t, &cov))
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 {
				t.Fatal("scenario completed nothing; its digest would pin nothing")
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("result does not encode: %v", err)
			}
			sum := sha256.Sum256(data)
			digest := hex.EncodeToString(sum[:])
			got[sc.name] = digest
			cov.crashes += res.Crashed
			cov.preemptions += res.Preemptions
			cov.rejections += res.Rejected
			cov.series += len(res.Series)
			if compare && golden.Digests[sc.name] != digest {
				t.Errorf("Result digest %s, golden %s", digest, golden.Digests[sc.name])
			}
		})
	}
	if len(got) != len(scenarios) {
		return // a subtest failed or was filtered out; coverage is partial
	}
	for name, c := range map[string]int{
		"crashes": cov.crashes, "preemptions": cov.preemptions, "admission rejections": cov.rejections,
		"power samples": cov.series, "bypass elections": cov.bypass, "non-bypass SLA elections": cov.direct,
		"non-head dequeues": cov.nonHead,
	} {
		if c == 0 {
			t.Errorf("no scenario produced any %s; the oracle no longer covers that path", name)
		}
	}
	if cov.peakQueue < 100 {
		t.Errorf("deepest SED backlog %d, want hundreds: the discipline scenarios no longer stress the dequeue", cov.peakQueue)
	}
	t.Logf("coverage: %+v", cov)
	if update && !t.Failed() {
		data, err := json.MarshalIndent(kernelGolden{Arch: runtime.GOARCH, Digests: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range golden.Digests {
		if _, ok := got[name]; !ok {
			t.Errorf("golden entry %q has no scenario", name)
		}
	}
	if !compare {
		t.Skipf("golden digests cut on %s, not compared on %s", golden.Arch, runtime.GOARCH)
	}
}

// TestComposedStackExercisesAllModules guards against the composed
// scenario silently degenerating: emissions, the ledger and the
// controller must all have fired.
func TestComposedStackExercisesAllModules(t *testing.T) {
	var cov kernelCoverage
	res, err := sim.Run(composedStack(t, &cov, sched.Carbon, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.CO2Grams <= 0 {
		t.Error("no emissions integrated")
	}
	if res.SLA == nil || res.SLA.Completed == 0 {
		t.Error("ledger never ran")
	}
	if res.Boots+res.Shutdowns == 0 {
		t.Error("controller never acted")
	}
}
