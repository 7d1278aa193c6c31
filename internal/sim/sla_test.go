package sim

import (
	"math"
	"testing"

	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/sched"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// slaPlatform is a tiny two-node platform for deterministic SLA runs.
func slaPlatform() *cluster.Platform {
	return cluster.MustPlatform(cluster.NewNodes("taurus", 2))
}

// TestSLAAdmissionRejectsHopeless: a hard-deadline task no node can
// serve in time is refused, forfeits its value, and the run still
// terminates cleanly with the rejection on the books.
func TestSLAAdmissionRejectsHopeless(t *testing.T) {
	// taurus: 9e9 flops/core → 2.7e12 ops = 300 s best case.
	tasks := []workload.Task{
		{ID: 0, Ops: 2.7e12, Submit: 0, Deadline: 100, Value: 5, Class: "hard"},
		{ID: 1, Ops: 2.7e12, Submit: 0, Deadline: 1000, Value: 5, Class: "hard"},
	}
	cat := sla.Catalog{"hard": {Name: "hard", Curve: sla.HardDrop{}}}
	res, err := runRecorded(Config{
		Platform: slaPlatform(),
		Policy:   sched.New(sched.GreenPerf),
		Tasks:    tasks,
		Explore:  true,
		Seed:     1,
		Modules:  []Module{&SLAModule{Config: &sla.Config{Catalog: cat, Admission: &sla.Admission{}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Rejected != 1 {
		t.Fatalf("completed %d rejected %d, want 1/1", res.Completed, res.Rejected)
	}
	if len(res.Rejections) != 1 || res.Rejections[0].ID != 0 || res.Rejections[0].ValueUSD != 5 {
		t.Fatalf("rejections %+v", res.Rejections)
	}
	if res.SLA == nil {
		t.Fatal("SLA summary missing")
	}
	if res.SLA.EarnedUSD != 5 || res.SLA.ForfeitedUSD != 5 || res.SLA.Rejected != 1 {
		t.Fatalf("ledger %+v", res.SLA)
	}
	// The completed record carries its terms and positive slack.
	rec := res.Records[0]
	if rec.ID != 1 || rec.EarnedUSD != 5 || rec.Deadline != 1000 {
		t.Fatalf("record %+v", rec)
	}
	if rec.Finish >= rec.Deadline {
		t.Fatalf("finish %v not before deadline %v", rec.Finish, rec.Deadline)
	}
}

// TestSLAEDFQueueBeatsFIFO: under an identical saturated backlog, the
// EDF discipline completes the deadline task on time where FIFO
// forfeits it — the core queue-reordering claim.
func TestSLAEDFQueueBeatsFIFO(t *testing.T) {
	// One node, one slot: three 300 s batch tasks arrive first, then a
	// deadline task due 700 s after its submission.
	platform := cluster.MustPlatform(cluster.NewNodes("taurus", 1))
	var tasks []workload.Task
	for i := 0; i < 3; i++ {
		tasks = append(tasks, workload.Task{ID: i, Ops: 2.7e12, Submit: 0})
	}
	tasks = append(tasks, workload.Task{ID: 3, Ops: 9e10, Submit: 1, Deadline: 701, Value: 2, Class: "hard"})
	cat := sla.Catalog{"hard": {Name: "hard", Curve: sla.HardDrop{}}}

	run := func(order sched.TaskOrder) *Result {
		res, err := Run(Config{
			Platform:     platform,
			Policy:       sched.New(sched.GreenPerf),
			Tasks:        tasks,
			Explore:      true,
			Seed:         1,
			SlotsPerNode: 1,
			Modules:      []Module{&SLAModule{Config: &sla.Config{Catalog: cat, Order: order}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fifo := run(nil)
	edf := run(sched.NewOrder(sched.EDF))
	if fifo.DeadlineMisses == 0 {
		t.Fatalf("FIFO run unexpectedly met the deadline (misses=%d)", fifo.DeadlineMisses)
	}
	if edf.DeadlineMisses != 0 {
		t.Fatalf("EDF run missed %d deadlines", edf.DeadlineMisses)
	}
	if fifo.SLA.EarnedUSD >= edf.SLA.EarnedUSD {
		t.Fatalf("EDF must out-earn FIFO: %v vs %v", edf.SLA.EarnedUSD, fifo.SLA.EarnedUSD)
	}
}

// TestSLAPerTaskCarbonAttribution: with a carbon profile attached,
// every completed record carries grams, and their sum stays below the
// whole-platform total (which also pays idle and boot emissions).
func TestSLAPerTaskCarbonAttribution(t *testing.T) {
	profile := carbon.MustProfile(carbon.SiteProfile{
		Site: "grid", Signal: carbon.Constant{G: 500},
	})
	burst, err := workload.BurstThenRate{Total: 8, Burst: 8, Ops: 2.7e12}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runRecorded(Config{
		Platform: slaPlatform(),
		Policy:   sched.New(sched.GreenPerf),
		Tasks:    burst,
		Explore:  true,
		Seed:     1,
		Modules:  []Module{&CarbonModule{Profile: profile}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, rec := range res.Records {
		if rec.CO2Grams <= 0 {
			t.Fatalf("record %d has no carbon attribution: %+v", rec.ID, rec)
		}
		// Constant signal: grams must equal the exact conversion of
		// the task's energy share.
		want := carbon.Grams(profile.Site("taurus"), rec.EnergyShareJ, rec.Start, rec.Finish)
		if math.Abs(rec.CO2Grams-want) > 1e-9 {
			t.Fatalf("record %d grams %v, want %v", rec.ID, rec.CO2Grams, want)
		}
		sum += rec.CO2Grams
	}
	if sum <= 0 || sum > res.CO2Grams {
		t.Fatalf("task-attributed %v g must be positive and below platform total %v g", sum, res.CO2Grams)
	}
	if res.GramsPerTask() <= 0 || res.JoulesPerTask() <= 0 {
		t.Fatalf("per-task aggregates: %v g, %v J", res.GramsPerTask(), res.JoulesPerTask())
	}
}

// TestControlPendingSlack: the controller surface reports the
// tightest pending deadline across queued and unplaced work.
func TestControlPendingSlack(t *testing.T) {
	platform := cluster.MustPlatform(cluster.NewNodes("taurus", 1))
	// Slot occupied by a long batch task; a deadline task queues.
	tasks := []workload.Task{
		{ID: 0, Ops: 2.7e13, Submit: 0},                                           // ≈3000 s
		{ID: 1, Ops: 2.7e12, Submit: 10, Deadline: 2000, Value: 1, Class: "hard"}, // queued
		{ID: 2, Ops: 2.7e12, Submit: 20, Deadline: 5000, Value: 1, Class: "hard"}, // queued, looser
	}
	cat := sla.Catalog{"hard": {Name: "hard", Curve: sla.HardDrop{}}}
	var sawSlack []float64
	_, err := Run(Config{
		Platform:     platform,
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks,
		Explore:      true,
		Seed:         1,
		SlotsPerNode: 1,
		Modules: []Module{
			&SLAModule{Config: &sla.Config{Catalog: cat}},
			&HookModule{OnTickFunc: func(now float64, ctl Control) {
				if slack, ok := ctl.PendingSlack(); ok {
					sawSlack = append(sawSlack, slack)
				}
			}},
		},
		ControlEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sawSlack) == 0 {
		t.Fatal("controller never saw pending deadline slack")
	}
	// First observation at t=100: tightest is task 1 with
	// 2000 − 100 − 300 = 1600.
	if math.Abs(sawSlack[0]-1600) > 1e-6 {
		t.Fatalf("first slack %v, want 1600", sawSlack[0])
	}
	// Slack shrinks tick over tick while the task stays queued.
	if len(sawSlack) > 1 && sawSlack[1] >= sawSlack[0] {
		t.Fatalf("slack did not shrink: %v", sawSlack[:2])
	}
}

// TestPendingSlackUsesOwningNodeForQueuedTasks: a queued task cannot
// migrate, so its slack bound must use the owning (possibly slow)
// node's execution time, not the platform's fastest.
func TestPendingSlackUsesOwningNodeForQueuedTasks(t *testing.T) {
	platform := cluster.MustPlatform(
		cluster.NewNodes("taurus", 1),     // 9.0e9 flops/core
		cluster.NewNodes("sagittaire", 1), // 4.6e9 flops/core
	)
	r, err := NewRunner(Config{
		Platform: platform,
		Policy:   sched.New(sched.GreenPerf),
		Tasks:    []workload.Task{{ID: 0, Ops: 1e9, Submit: 0}},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A deadline task stuck in the slow node's queue: 2.7e12 ops take
	// ≈587 s there but only 300 s on taurus.
	slow := r.sedByName("sagittaire-0")
	slow.queue = append(slow.queue, pendingTask{task: workload.Task{ID: 9, Ops: 2.7e12, Deadline: 1000}})
	ctl := &runnerControl{r: r, now: 0}
	slack, ok := ctl.PendingSlack()
	if !ok {
		t.Fatal("no pending slack reported")
	}
	wantExec := slow.node.Spec.TaskSeconds(2.7e12)
	if math.Abs(slack-(1000-wantExec)) > 1e-9 {
		t.Fatalf("slack %v, want %v (owning node's exec, not the fastest node's)", slack, 1000-wantExec)
	}
}

// TestSLAUrgentBypassElectsNonCandidates: with the express lane on, a
// deadline task is elected onto a powered-on node whose candidacy a
// controller revoked, while best-effort work stays deferred.
func TestSLAUrgentBypassElectsNonCandidates(t *testing.T) {
	platform := cluster.MustPlatform(cluster.NewNodes("taurus", 1))
	tasks := []workload.Task{
		{ID: 0, Ops: 9e10, Submit: 50, Deadline: 500, Value: 1, Class: "hard"},
		{ID: 1, Ops: 9e10, Submit: 50}, // best effort: must wait for candidacy
	}
	cat := sla.Catalog{"hard": {Name: "hard", Curve: sla.HardDrop{}}}
	reopened := false
	res, err := runRecorded(Config{
		Platform:     platform,
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks,
		Explore:      true,
		Seed:         1,
		RetryEvery:   10,
		ControlEvery: 10,
		Modules: []Module{
			&SLAModule{Config: &sla.Config{Catalog: cat, UrgentBypass: true}},
			&HookModule{OnTickFunc: func(now float64, ctl Control) {
				// Revoke candidacy before the arrivals; restore late.
				if now < 1000 {
					_ = ctl.SetCandidate("taurus-0", false)
				} else if !reopened {
					_ = ctl.SetCandidate("taurus-0", true)
					reopened = true
				}
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var hard, batch TaskRecord
	for _, rec := range res.Records {
		if rec.ID == 0 {
			hard = rec
		} else {
			batch = rec
		}
	}
	if hard.Deadline == 0 || hard.Finish > hard.Deadline {
		t.Fatalf("express task missed its deadline: %+v", hard)
	}
	if batch.Start < 1000 {
		t.Fatalf("deferred best-effort task started at %v, before candidacy reopened", batch.Start)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("misses %d", res.DeadlineMisses)
	}
}
