package sim

import (
	"math"
	"strings"
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/sched"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// preemptCatalog resolves the "hard" class used across these tests:
// explicit per-task deadlines, hard-drop value.
func preemptCatalog() sla.Catalog {
	return sla.Catalog{"hard": {Name: "hard", Curve: sla.HardDrop{}}}
}

// TestPreemptDisplacesBatchForUrgent: on a saturated single-slot node,
// a deadline-urgent arrival checkpoints the running batch task, runs
// immediately and meets its deadline; the batch task restarts with its
// progress retained minus the restart penalty and still completes.
func TestPreemptDisplacesBatchForUrgent(t *testing.T) {
	// taurus: 9e9 flops/core. Batch: 9e12 ops = 1000 s. Urgent: 9e10
	// ops = 10 s, due at t=100, arriving at t=50.
	tasks := []workload.Task{
		{ID: 0, Ops: 9e12, Submit: 0},
		{ID: 1, Ops: 9e10, Submit: 50, Deadline: 100, Value: 2, Class: "hard"},
	}
	res, err := runRecorded(Config{
		Platform:     cluster.MustPlatform(cluster.NewNodes("taurus", 1)),
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks,
		Explore:      true,
		Seed:         1,
		SlotsPerNode: 1,
		Modules: []Module{
			&SLAModule{Config: &sla.Config{Catalog: preemptCatalog()}},
			&PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.5}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.DeadlineMisses != 0 {
		t.Fatalf("completed %d, misses %d; want 2, 0", res.Completed, res.DeadlineMisses)
	}
	if res.Preemptions != 1 {
		t.Fatalf("preemptions %d, want 1", res.Preemptions)
	}
	// Checkpoint at t=50: 4.5e11 ops done, half re-executed.
	if want := 0.5 * 4.5e11; math.Abs(res.PreemptRedoneOps-want) > 1 {
		t.Fatalf("redone ops %v, want %v", res.PreemptRedoneOps, want)
	}
	var batch, urgent TaskRecord
	for _, rec := range res.Records {
		if rec.ID == 0 {
			batch = rec
		} else {
			urgent = rec
		}
	}
	if urgent.Start != 50 || urgent.Finish != 60 || urgent.Preemptions != 0 {
		t.Fatalf("urgent record %+v; want immediate 50→60 run", urgent)
	}
	if urgent.EarnedUSD != 2 {
		t.Fatalf("urgent earned %v, want full value 2", urgent.EarnedUSD)
	}
	// Batch restarts at t=60 with 9e12−4.5e11+2.25e11 = 8.775e12 ops
	// left (975 s).
	if batch.Preemptions != 1 {
		t.Fatalf("batch record preemptions %d, want 1", batch.Preemptions)
	}
	if batch.Start != 60 || math.Abs(batch.Finish-1035) > 1e-6 {
		t.Fatalf("batch record %+v; want restart 60→1035", batch)
	}
	// The preempted segment still charged its joules: the batch task's
	// share covers both segments, far above the urgent task's 10 s.
	if batch.EnergyShareJ <= 50*urgent.EnergyShareJ {
		t.Fatalf("batch share %v J does not cover the preempted segment (urgent %v J)",
			batch.EnergyShareJ, urgent.EnergyShareJ)
	}
	sum := batch.EnergyShareJ + urgent.EnergyShareJ
	if sum <= 0 || sum > float64(res.EnergyJ)*(1+1e-9) {
		t.Fatalf("attributed %v J outside (0, platform total %v J]", sum, res.EnergyJ)
	}
}

// TestPreemptEnergyConservation: on the identical trace, the sum of
// per-task energy shares (preempted segments included) stays within 1%
// of the non-preemptive attribution — preemption moves joules between
// records, it must not mint or lose them.
func TestPreemptEnergyConservation(t *testing.T) {
	tasks := []workload.Task{
		{ID: 0, Ops: 9e12, Submit: 0},
		{ID: 1, Ops: 9e10, Submit: 50, Deadline: 100, Value: 2, Class: "hard"},
	}
	base := Config{
		Platform:     cluster.MustPlatform(cluster.NewNodes("taurus", 1)),
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks,
		Explore:      true,
		Seed:         1,
		SlotsPerNode: 1,
		Modules:      []Module{&SLAModule{Config: &sla.Config{Catalog: preemptCatalog()}}},
	}
	attributed := func(cfg Config) float64 {
		res, err := runRecorded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, rec := range res.Records {
			sum += rec.EnergyShareJ
		}
		if sum <= 0 || sum > float64(res.EnergyJ)*(1+1e-9) {
			t.Fatalf("attributed %v J outside (0, %v J]", sum, res.EnergyJ)
		}
		return sum
	}
	plain := attributed(base)
	withPre := base
	// A perfect checkpoint executes the same total work, so the
	// attributed joules must match the non-preemptive run.
	withPre.Modules = []Module{base.Modules[0], &PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0}}}
	preempted := attributed(withPre)
	if rel := math.Abs(preempted-plain) / plain; rel > 0.01 {
		t.Fatalf("attributed energy drifted %.2f%% under preemption (%v J vs %v J)",
			rel*100, preempted, plain)
	}
}

// TestPreemptRespectsVictimDeadline: a victim whose own deadline the
// restart would breach is untouchable — the urgent task waits (and
// misses) rather than manufacturing a new SLA breach.
func TestPreemptRespectsVictimDeadline(t *testing.T) {
	// Victim: 1000 s task due at t=1005 — displacing it (10 s urgent +
	// 950 s remainder ⇒ finish 1010) would breach it by 5 s.
	tasks := []workload.Task{
		{ID: 0, Ops: 9e12, Submit: 0, Deadline: 1005, Value: 1, Class: "hard"},
		{ID: 1, Ops: 9e10, Submit: 50, Deadline: 100, Value: 2, Class: "hard"},
	}
	res, err := runRecorded(Config{
		Platform:     cluster.MustPlatform(cluster.NewNodes("taurus", 1)),
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks,
		Explore:      true,
		Seed:         1,
		SlotsPerNode: 1,
		Modules: []Module{
			&SLAModule{Config: &sla.Config{Catalog: preemptCatalog()}},
			&PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 0 {
		t.Fatalf("preempted an unsafe victim (%d preemptions)", res.Preemptions)
	}
	for _, rec := range res.Records {
		switch rec.ID {
		case 0:
			if rec.Finish > rec.Deadline {
				t.Fatalf("victim missed its deadline: %+v", rec)
			}
		case 1:
			if rec.Finish <= rec.Deadline {
				t.Fatalf("urgent task met its deadline without a slot: %+v", rec)
			}
		}
	}
	if res.DeadlineMisses != 1 {
		t.Fatalf("misses %d, want exactly the urgent task", res.DeadlineMisses)
	}
}

// TestPreemptFullRestartPenalty: RestartPenaltyFrac 1 models no
// checkpoint at all — the victim restarts from scratch and every
// completed op is redone.
func TestPreemptFullRestartPenalty(t *testing.T) {
	tasks := []workload.Task{
		{ID: 0, Ops: 9e12, Submit: 0},
		{ID: 1, Ops: 9e10, Submit: 50, Deadline: 100, Value: 2, Class: "hard"},
	}
	res, err := runRecorded(Config{
		Platform:     cluster.MustPlatform(cluster.NewNodes("taurus", 1)),
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks,
		Explore:      true,
		Seed:         1,
		SlotsPerNode: 1,
		Modules: []Module{
			&SLAModule{Config: &sla.Config{Catalog: preemptCatalog()}},
			&PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 1 {
		t.Fatalf("preemptions %d, want 1", res.Preemptions)
	}
	if want := 4.5e11; math.Abs(res.PreemptRedoneOps-want) > 1 {
		t.Fatalf("redone ops %v, want every completed op (%v)", res.PreemptRedoneOps, want)
	}
	for _, rec := range res.Records {
		if rec.ID == 0 && math.Abs(rec.Finish-1060) > 1e-6 {
			t.Fatalf("batch finish %v, want 1060 (full 1000 s re-run from t=60)", rec.Finish)
		}
	}
}

// TestControlPreemptSurface: a controller can inspect running tasks
// and checkpoint one; the freed slot immediately drains the queue, and
// the guard rails (unknown node/task, zero progress) hold.
func TestControlPreemptSurface(t *testing.T) {
	// Batch runs 0→1000; the deadline task queues at t=10 with a loose
	// deadline (t=2000), so the arrival path leaves it alone.
	tasks := []workload.Task{
		{ID: 0, Ops: 9e12, Submit: 0},
		{ID: 1, Ops: 9e10, Submit: 10, Deadline: 2000, Value: 2, Class: "hard"},
	}
	preempted := false
	var errs []string
	res, err := runRecorded(Config{
		Platform:     cluster.MustPlatform(cluster.NewNodes("taurus", 1)),
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks,
		Explore:      true,
		Seed:         1,
		SlotsPerNode: 1,
		Modules: []Module{
			&SLAModule{Config: &sla.Config{Catalog: preemptCatalog()}},
			&PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.5}},
			&HookModule{OnTickFunc: func(now float64, ctl Control) {
				if preempted {
					return
				}
				views := ctl.Running("taurus-0")
				if len(views) != 1 {
					t.Fatalf("running views %+v, want the batch task", views)
				}
				v := views[0]
				if v.TaskID != 0 || v.Deadline != 0 || v.Started != 0 {
					t.Fatalf("victim view %+v", v)
				}
				// At t=100: 9e11 ops done, half redone ⇒ 50 s at 9e9 flops.
				if math.Abs(v.RedoSec-50) > 1e-6 || math.Abs(v.RemainingSec-900) > 1e-6 {
					t.Fatalf("victim view redo %v s remaining %v s, want 50/900", v.RedoSec, v.RemainingSec)
				}
				for _, bad := range []error{
					must(ctl.Preempt("nope-0", 0)),
					must(ctl.Preempt("taurus-0", 99)),
				} {
					errs = append(errs, bad.Error())
				}
				if err := ctl.Preempt("taurus-0", 0); err != nil {
					t.Fatalf("Preempt: %v", err)
				}
				// The slot went to the queued deadline task; the fresh
				// segment has zero progress and must refuse a checkpoint.
				if err := ctl.Preempt("taurus-0", 1); err == nil {
					t.Fatal("zero-progress segment preempted")
				}
				preempted = true
			}},
		},
		ControlEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 2 {
		t.Fatalf("error cases %v", errs)
	}
	if res.Preemptions != 1 || res.DeadlineMisses != 0 {
		t.Fatalf("preemptions %d misses %d", res.Preemptions, res.DeadlineMisses)
	}
	for _, rec := range res.Records {
		switch rec.ID {
		case 1: // drained from the queue the instant the slot freed
			if rec.Start != 100 || math.Abs(rec.Finish-110) > 1e-6 {
				t.Fatalf("queued task record %+v, want 100→110", rec)
			}
		case 0: // 9e12−9e11+4.5e11 = 8.55e12 ops = 950 s from t=110
			if rec.Start != 110 || math.Abs(rec.Finish-1060) > 1e-6 {
				t.Fatalf("batch record %+v, want 110→1060", rec)
			}
		}
	}
}

// must converts a wanted error into a value, failing loudly on nil.
func must(err error) error {
	if err == nil {
		panic("expected an error")
	}
	return err
}

// TestControlPreemptRespectsSlotOccupancy: the slot a controller
// preemption frees serves the queue first, so the safety calculus must
// charge the victim that occupancy too — a displacement whose queue
// drain would push the victim past its own deadline is refused.
func TestControlPreemptRespectsSlotOccupancy(t *testing.T) {
	// Victim: 1000 s task due at t=1150. At the t=100 tick a naive
	// check (restart after 900 s remaining ⇒ finish 1000) looks safe,
	// but the queued 300 s task runs first: 100+300+900 = 1300 > 1150.
	tasks := []workload.Task{
		{ID: 0, Ops: 9e12, Submit: 0, Deadline: 1150, Value: 1, Class: "hard"},
		{ID: 1, Ops: 2.7e12, Submit: 1},
	}
	tried := false
	res, err := Run(Config{
		Platform:     cluster.MustPlatform(cluster.NewNodes("taurus", 1)),
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks,
		Explore:      true,
		Seed:         1,
		SlotsPerNode: 1,
		Modules: []Module{
			&SLAModule{Config: &sla.Config{Catalog: preemptCatalog()}},
			&PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0}},
			&HookModule{OnTickFunc: func(now float64, ctl Control) {
				if tried {
					return
				}
				tried = true
				if err := ctl.Preempt("taurus-0", 0); err == nil {
					t.Fatal("displacement allowed although the queue drain breaches the victim's deadline")
				}
			}},
		},
		ControlEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 0 || res.DeadlineMisses != 0 {
		t.Fatalf("preemptions %d misses %d; the refused displacement must leave the victim on time",
			res.Preemptions, res.DeadlineMisses)
	}
}

// TestCrashedQueuedTaskNotReadmitted: a task admitted at submission
// and then lost from a crashed node's queue migrates without passing
// the admission screen again — re-screening at the slack-poorer crash
// time would reject work the run already took on.
func TestCrashedQueuedTaskNotReadmitted(t *testing.T) {
	// Both tasks pin to taurus under static estimation; task 1 is
	// admitted at t=0 (best case 300 s against a 350 s deadline) and
	// queues. After the t=100 crash only sagittaire (≈587 s) remains:
	// a re-screen would reject, the fix runs it late instead.
	tasks := []workload.Task{
		{ID: 0, Ops: 9e12, Submit: 0},
		{ID: 1, Ops: 2.7e12, Submit: 0, Deadline: 350, Value: 5, Class: "hard"},
	}
	res, err := Run(Config{
		Platform: cluster.MustPlatform(
			cluster.NewNodes("taurus", 1),
			cluster.NewNodes("sagittaire", 1),
		),
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks,
		Static:       true,
		Seed:         1,
		SlotsPerNode: 1,
		Crashes:      map[string]float64{"taurus-0": 100},
		Modules:      []Module{&SLAModule{Config: &sla.Config{Catalog: preemptCatalog(), Admission: &sla.Admission{}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Fatalf("rejected %d: an admitted task was re-screened after the crash", res.Rejected)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d of 2", res.Completed)
	}
	if res.Crashed != 1 {
		t.Fatalf("crashed %d, want only the running execution", res.Crashed)
	}
}

// TestControlPreemptDisabled: without a PreemptModule the surface
// refuses to checkpoint anything.
func TestControlPreemptDisabled(t *testing.T) {
	called := false
	_, err := Run(Config{
		Platform:     cluster.MustPlatform(cluster.NewNodes("taurus", 1)),
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        []workload.Task{{ID: 0, Ops: 9e12, Submit: 0}},
		Explore:      true,
		Seed:         1,
		SlotsPerNode: 1,
		ControlEvery: 100,
		Modules: []Module{
			&HookModule{OnTickFunc: func(now float64, ctl Control) {
				if called {
					return
				}
				called = true
				if err := ctl.Preempt("taurus-0", 0); err == nil ||
					!strings.Contains(err.Error(), "disabled") {
					t.Fatalf("Preempt with preemption disabled: %v", err)
				}
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBestExecSkipsCrashedNodes: admission control's best-case bound
// must not rank a dead node. A deadline only the (crashed) fast node
// could meet is a provable reject, not an accepted miss.
func TestBestExecSkipsCrashedNodes(t *testing.T) {
	// taurus: 2.7e12 ops = 300 s; sagittaire: ≈587 s. Deadline 400 s
	// after submission: feasible only on taurus.
	tasks := []workload.Task{
		{ID: 0, Ops: 2.7e12, Submit: 10, Deadline: 410, Value: 5, Class: "hard"},
	}
	res, err := Run(Config{
		Platform: cluster.MustPlatform(
			cluster.NewNodes("taurus", 1),
			cluster.NewNodes("sagittaire", 1),
		),
		Policy:  sched.New(sched.GreenPerf),
		Tasks:   tasks,
		Explore: true,
		Seed:    1,
		Crashes: map[string]float64{"taurus-0": 5},
		Modules: []Module{&SLAModule{Config: &sla.Config{Catalog: preemptCatalog(), Admission: &sla.Admission{}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || res.Completed != 0 {
		t.Fatalf("rejected %d completed %d; the dead fast node must not anchor admission",
			res.Rejected, res.Completed)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("misses %d: admitted work the platform provably could not serve", res.DeadlineMisses)
	}
}

// TestCrashCountsOnlyRunningTasks: a queued-but-never-started task
// lost no execution — it must migrate to a fresh election without
// inflating Result.Crashed or its own resubmit count.
func TestCrashCountsOnlyRunningTasks(t *testing.T) {
	// Static estimation pins both tasks to taurus (best GreenPerf):
	// task 0 runs, task 1 queues. The crash at t=50 loses exactly one
	// execution.
	tasks := []workload.Task{
		{ID: 0, Ops: 9e12, Submit: 0},
		{ID: 1, Ops: 9e11, Submit: 1},
	}
	res, err := runRecorded(Config{
		Platform: cluster.MustPlatform(
			cluster.NewNodes("taurus", 1),
			cluster.NewNodes("sagittaire", 1),
		),
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks,
		Static:       true,
		Seed:         1,
		SlotsPerNode: 1,
		Crashes:      map[string]float64{"taurus-0": 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed != 1 {
		t.Fatalf("crashed %d, want 1: only the running task lost an execution", res.Crashed)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d of 2", res.Completed)
	}
	for _, rec := range res.Records {
		want := 0
		if rec.ID == 0 {
			want = 1
		}
		if rec.Resubmits != want {
			t.Fatalf("task %d resubmits %d, want %d", rec.ID, rec.Resubmits, want)
		}
		if rec.Server != "sagittaire-0" {
			t.Fatalf("task %d finished on %s, want the surviving node", rec.ID, rec.Server)
		}
	}
}

// TestDeadlineBoundaryExactlyOnTime pins the deadline comparison: a
// task finishing exactly at its deadline is on time in both
// Result.DeadlineMisses and the SLA ledger, with full value credited.
func TestDeadlineBoundaryExactlyOnTime(t *testing.T) {
	// 9e11 ops on taurus = exactly 100 s; submit 0, deadline 100.
	tasks := []workload.Task{
		{ID: 0, Ops: 9e11, Submit: 0, Deadline: 100, Value: 3, Class: "hard"},
	}
	res, err := runRecorded(Config{
		Platform: cluster.MustPlatform(cluster.NewNodes("taurus", 1)),
		Policy:   sched.New(sched.GreenPerf),
		Tasks:    tasks,
		Explore:  true,
		Seed:     1,
		Modules:  []Module{&SLAModule{Config: &sla.Config{Catalog: preemptCatalog()}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Records[0]
	if rec.Start != 0 || rec.Finish != 100 {
		t.Fatalf("record %+v, want an exact 0→100 run", rec)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("DeadlineMisses %d for a finish exactly at the deadline", res.DeadlineMisses)
	}
	if res.SLA.Misses != 0 || res.SLA.OnTime != 1 {
		t.Fatalf("ledger misses %d on-time %d; counters diverge at the boundary",
			res.SLA.Misses, res.SLA.OnTime)
	}
	if rec.EarnedUSD != 3 || res.SLA.EarnedUSD != 3 {
		t.Fatalf("earned %v / %v, want the full value at the boundary",
			rec.EarnedUSD, res.SLA.EarnedUSD)
	}
}
